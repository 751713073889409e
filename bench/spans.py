"""In-process traced run: spans around the calls into each layer.

``instrument`` swaps the public functions the CLI calls for wrappers that
record a span per call, then runs the real ``cli.main`` in this process, so
the traced op takes the same code path as the untraced one.  Span names are
``<module>.<function>``.  A span's self time is its duration minus the part
its child spans cover.  Counts are computed after the span has closed, so
they add to the parent's self time, never to the layer's.  Counts derived
from sizes rather than observed are listed in ``COMPUTED_COUNTS``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from dataclasses import dataclass, field

COMPUTED_COUNTS = ("cochain.is_cocycle.terms_computed", "oracle.rank.dense_bytes",
                   "algebra.invert.count_terms")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps every span in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.op, parent, 0.0)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def op_spans(self, op: int) -> list:
        return [(i, sp) for i, sp in enumerate(self.spans) if sp.op == op]

    def op_summary(self, op: int) -> dict:
        """Per-op totals: `<span>.self_s`, `<span>.<count>`, `<span>.errors`."""
        spans = self.op_spans(op)
        child_time: dict = {}
        for _, sp in spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.end - sp.start
        out: dict = {}
        for i, sp in spans:
            self_s = sp.end - sp.start - child_time.get(i, 0.0)
            out[f"{sp.name}.self_s"] = out.get(f"{sp.name}.self_s", 0.0) + self_s
            out[f"{sp.name}.errors"] = out.get(f"{sp.name}.errors", 0) + sp.error
            for key, value in sp.counts.items():
                out[f"{sp.name}.{key}"] = out.get(f"{sp.name}.{key}", 0) + value
        return out

    def root_time(self, op: int, name: str) -> float:
        return sum(sp.end - sp.start for _, sp in self.op_spans(op)
                   if sp.parent is None and sp.name == name)

    def dump(self) -> list:
        return [{"name": sp.name, "op": sp.op, "parent": sp.parent, "start": sp.start,
                 "end": sp.end, "error": sp.error, "counts": sp.counts} for sp in self.spans]


def _wrap(tracer: Tracer, name: str, fn, counts=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if counts is not None:
            sp.counts.update(counts(args, result))
        return result
    return wrapper


def _is_cocycle_counts(args, _result) -> dict:
    f = args[0]
    entries = len(f.values)
    big_n = f.ctx.order - 1
    return {"entries_in": entries, "terms_computed": entries * f.degree * (3 * big_n - 1)}


def _invert_counts(args, _result) -> dict:
    from icochains.algebra import count_terms
    f = args[0]
    return {"count_terms": count_terms(f.ctx, f.degree)}


def _d_matrix_counts(_args, m) -> dict:
    return {"rows": m.rows, "cols": m.cols, "nnz": sum(len(c) for c in m.columns)}


def _rank_counts(args, rank) -> dict:
    m = args[0]
    return {"rank": rank, "dense_bytes": m.rows * m.cols * 8}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the layer entry points the CLI reaches; restore them on exit."""
    from icochains import cli, oracle
    from icochains.cochain import ICochain

    patches = [
        (cli, "realize", "algebra.realize", lambda a, f: {"entries_out": len(f.values)}),
        (cli, "cochain_document", "cli.serialize", None),
        (cli, "algebra_document", "cli.serialize", None),
        (cli, "dumps_document", "cli.serialize", lambda a, text: {"bytes": len(text)}),
        (cli, "parse_cochain_document", "cli.parse", lambda a, r: {"bytes": len(a[0])}),
        (cli, "invert", "algebra.invert", _invert_counts),
        (cli, "invert_normalized", "algebra.invert", _invert_counts),
        (ICochain, "is_cocycle", "cochain.is_cocycle", _is_cocycle_counts),
        (oracle, "d_matrix", "oracle.d_matrix", _d_matrix_counts),
        (oracle, "rank", "oracle.rank", _rank_counts),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, counts in patches:
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), counts))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def clear_caches() -> None:
    """Empty every functools cache in the library, so each op starts cold
    as a fresh CLI process does."""
    for name, module in list(sys.modules.items()):
        if name == "icochains" or name.startswith("icochains."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_in_process(tracer: Tracer, cli_args: list) -> tuple:
    """Run a pipe of CLI invocations through ``cli.main`` in this process.

    Returns (exit codes, stdout of the last invocation).
    """
    from icochains import cli

    codes, text = [], ""
    saved_stdin = sys.stdin
    try:
        for args in cli_args:
            sys.stdin = io.StringIO(text)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    with tracer.span("cli.main"):
                        codes.append(cli.main(list(args)))
                except SystemExit as exc:  # argparse usage errors
                    codes.append(exc.code)
                except Exception:  # a process would exit 1 with a traceback
                    codes.append(1)
            text = buf.getvalue()
    finally:
        sys.stdin = saved_stdin
    return codes, text


def probe_span(tracer: Tracer, p: int, r: int) -> None:
    """Time ``shifted_monomial(ctx, (p-1, 0, ...))``, the probe factor that
    ``invert`` builds at p > 2, as a span of its own outside the op."""
    from icochains.group_ring import GroupContext, shifted_monomial

    ctx = GroupContext(p, r)
    with tracer.span("group_ring.shifted_monomial"):
        shifted_monomial(ctx, (p - 1,) + (0,) * (r - 1))
