"""The acceptance suite: every exit criterion as a runnable check.

Each criterion is a function that raises AssertionError on failure; the
runner prints one pass/fail line per criterion.  The CLI ``selftest``
command runs this suite, and the pytest acceptance module wraps the same
functions one test per criterion, so the two surfaces cannot drift apart.

All checks are exact (equality in F_p or in Z); the single floating-point
comparison (the closed-form term count) uses a relative tolerance of 1e-9.
"""

from __future__ import annotations

import random

from .algebra import AlgebraElem, compositions, realize
from .cochain import ICochain, _bar_coboundary
from .generators import (
    bockstein_cocycle,
    bockstein_pair_value,
    exponent_cocycle,
    probe_tensor,
    probe_tensor_split,
    q_choices,
)
from .graded import cohomology_report, graded_dimension
from .group_ring import MOD_P, GroupContext, shifted_monomial
from .inverse import count_terms, count_terms_closed_form, invert, invert_normalized_counted
from .oracle import classes_equal, cochain_basis

# Contexts every broad check runs over; bigger ones appear where a
# criterion calls for them.
DESK_CONTEXTS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]

# Triples (p, r, max degree) at which exhaustive basis checks run.
EXHAUSTIVE_TRIPLES = [(2, 2, 3), (3, 1, 4), (3, 2, 3)]


def _random_cochain(ctx: GroupContext, n: int, rng: random.Random) -> ICochain:
    values = {k: c for k in cochain_basis(ctx, n) if (c := rng.randrange(ctx.p))}
    return ICochain._trusted(ctx, n, MOD_P, values)


def check_round_trip() -> None:
    """invert(realize(m)) == m for every basis monomial at desk scale."""
    for p, r in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]:
        ctx = GroupContext(p, r)
        max_degree = 5 if p == 2 else 4
        for n in range(max_degree + 1):
            for sig in compositions(n, r):
                m = AlgebraElem.monomial(ctx, sig)
                got = invert(realize(m))
                assert got == m, f"(p={p}, r={r}): round trip broke at {sig}: {got.terms}"


def check_kills_coboundaries() -> None:
    """invert(d g) == 0, exhaustively on small bases and on random cochains."""
    for p, r, max_n in EXHAUSTIVE_TRIPLES:
        ctx = GroupContext(p, r)
        for n in range(1, max_n + 1):
            for key in cochain_basis(ctx, n - 1):
                g = ICochain._trusted(ctx, n - 1, MOD_P, {key: 1})
                image = invert(g.coboundary())
                assert image.is_zero(), f"(p={p}, r={r}, n={n}): invert(d delta_{key}) != 0"
    rng = random.Random(20240901)
    count = 0
    for p, r in [(2, 1), (2, 3), (5, 1), (5, 2)]:
        ctx = GroupContext(p, r)
        for n in range(1, 4):
            for _ in range(9):
                g = _random_cochain(ctx, n - 1, rng)
                assert invert(g.coboundary()).is_zero(), f"(p={p}, r={r}, n={n})"
                count += 1
    assert count >= 100, f"only {count} random checks ran"


def check_coboundary_agreement() -> None:
    """Bar- and ideal-form coboundaries agree value for value, pointwise
    on full bases."""
    for p, r, max_n in EXHAUSTIVE_TRIPLES:
        ctx = GroupContext(p, r)
        for n in range(0, max_n + 1):
            for key in cochain_basis(ctx, n):
                f = ICochain._trusted(ctx, n, MOD_P, {key: 1})
                assert _bar_coboundary(f) == f.coboundary(), f"(p={p}, r={r}, n={n}) at {key}"


def check_dimension_oracle() -> None:
    """Rank-computed dim H^n equals the monomial count, at the pinned tables."""
    tables = [
        (2, 2, [1, 2, 3, 4, 5]),
        (2, 3, [1, 3, 6, 10]),
        (3, 2, [1, 2, 3, 4]),
        (5, 1, [1, 1, 1, 1, 1]),
    ]
    for p, r, expected in tables:
        ctx = GroupContext(p, r)
        for n, want in enumerate(expected):
            rep = cohomology_report(ctx, n)
            assert rep.dim_h == want == graded_dimension(ctx, n), \
                f"(p={p}, r={r}, n={n}): dim H = {rep.dim_h}, expected {want}"


def check_bockstein_identities() -> None:
    """Degree-2 generators are cocycles; integral pair values reduce to the
    carry pattern; at p=2 the square of a degree-1 class is its Bockstein."""
    for p, r in DESK_CONTEXTS:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            h = bockstein_cocycle(ctx, i)
            assert h.coboundary().is_zero(), f"(p={p}, r={r}): generator {i} not a cocycle"
            for k in range(1, p):
                for l in range(1, p):
                    tk = shifted_monomial(ctx, tuple(k if j == i - 1 else 0 for j in range(r)))
                    tl = shifted_monomial(ctx, tuple(l if j == i - 1 else 0 for j in range(r)))
                    want = bockstein_pair_value(ctx, i, k, l) % p
                    got = h.evaluate([tk, tl])
                    assert got == want == (1 if k + l == p else 0), \
                        f"(p={p}, i={i}, k={k}, l={l}): {got} vs {want}"
    for p, r in [(2, 1), (2, 2), (2, 3)]:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            fi = exponent_cocycle(ctx, i)
            assert classes_equal(fi.cup(fi), bockstein_cocycle(ctx, i)), \
                f"(r={r}): square of class {i} is not its Bockstein"


def check_split_probe_expansion() -> None:
    """Mod-p cochains take equal values on a probe tensor and on the sum
    of its splits; 20 seeded random cochains per (i, m, context)."""
    rng = random.Random(20240902)
    for p, r in DESK_CONTEXTS:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            for m in range(0, 5):
                for _ in range(20):
                    f = _random_cochain(ctx, m, rng)
                    lhs = f.evaluate(probe_tensor(ctx, i, m))
                    rhs = sum(f.evaluate(probe_tensor_split(ctx, i, m, q))
                              for q in q_choices(ctx, m)) % p
                    assert lhs == rhs, f"(p={p}, r={r}, i={i}, m={m})"


def check_term_count() -> None:
    """count_terms matches the instrumented evaluation counter and the
    closed form; spot values pinned."""
    ctx31, ctx32, ctx22 = GroupContext(3, 1), GroupContext(3, 2), GroupContext(2, 2)
    assert count_terms(ctx31, 2) == 2
    assert count_terms(ctx32, 2) == 6
    assert count_terms(ctx22, 3) == 8
    rng = random.Random(20240903)
    for p, r in DESK_CONTEXTS:
        ctx = GroupContext(p, r)
        for n in range(0, 5):
            a = _random_cochain(ctx, n, rng)
            _, evaluations = invert_normalized_counted(a)
            want = count_terms(ctx, n)
            assert evaluations == want, \
                f"(p={p}, r={r}, n={n}): {evaluations} evaluations vs count {want}"
        for n in range(0, 9):
            exact = count_terms(ctx, n)
            closed = count_terms_closed_form(ctx, n)
            assert abs(closed - exact) <= 1e-9 * max(1, abs(exact)), \
                f"(p={p}, r={r}, n={n}): closed form {closed} vs exact {exact}"


def check_ring_map() -> None:
    """realize sends products to cup products up to coboundary, for all
    monomial pairs of total degree <= 4."""
    for p, r in [(2, 2), (3, 1), (3, 2)]:
        ctx = GroupContext(p, r)
        sigs = [sig for d in range(5) for sig in compositions(d, r)]
        for a in sigs:
            for b in sigs:
                total = sum(a) + sum(b)
                if total > 4:
                    continue
                ea, eb = AlgebraElem.monomial(ctx, a), AlgebraElem.monomial(ctx, b)
                product = ea * eb
                lhs = (ICochain.zero(ctx, total) if product.is_zero()
                       else realize(product))
                rhs = realize(ea).cup(realize(eb))
                assert classes_equal(lhs, rhs), f"(p={p}, r={r}): {a} * {b}"


def check_cli_round_trips() -> None:
    """The pinned invert examples write exactly the expected documents,
    byte-stable across repeated runs, and a realized cocycle's document
    re-parses and inverts."""
    import json

    from . import cli

    def run_invert(doc_text: str, p: int, r: int, expected_entries: list) -> None:
        parsed, _ = cli.parse_cochain_document(doc_text)
        outputs = []
        for _ in range(2):
            result = invert(parsed)
            outputs.append(cli.dumps_document(cli.algebra_document(result)))
        assert outputs[0] == outputs[1], "invert output is not byte-stable"
        expected = {"schema_version": "1", "p": p, "r": r, "entries": expected_entries}
        got = json.loads(outputs[0])
        assert got == expected, f"expected {expected}, got {got}"

    ctx31 = GroupContext(3, 1)
    h_doc = cli.dumps_document(
        cli.cochain_document(bockstein_cocycle(ctx31, 1), "icochain"))
    run_invert(h_doc, 3, 1, [{"signature": [2], "coeff": 1}])

    zero_doc = cli.dumps_document(
        cli.cochain_document(ICochain.zero(GroupContext(2, 1), 2), "icochain"))
    run_invert(zero_doc, 2, 1, [])

    ctx21 = GroupContext(2, 1)
    z_doc = cli.dumps_document(
        cli.cochain_document(bockstein_cocycle(ctx21, 1), "normalized"))
    run_invert(z_doc, 2, 1, [{"signature": [2], "coeff": 1}])

    # tau then invert, end to end through the command handlers
    cup_pow = realize(AlgebraElem.monomial(ctx31, (2,)))
    emitted = cli.dumps_document(cli.cochain_document(cup_pow, "icochain"))
    reparsed, _ = cli.parse_cochain_document(emitted)
    assert invert(reparsed).terms == {(2,): 1}


CRITERIA = [
    ("round-trip identity: invert(realize(m)) == m", check_round_trip),
    ("inverse map kills coboundaries", check_kills_coboundaries),
    ("bar and ideal coboundaries agree", check_coboundary_agreement),
    ("rank oracle matches monomial counts", check_dimension_oracle),
    ("Bockstein identities", check_bockstein_identities),
    ("split-probe expansion", check_split_probe_expansion),
    ("term count: counter and closed form", check_term_count),
    ("ring map up to coboundary", check_ring_map),
    ("CLI golden round trips", check_cli_round_trips),
]


def run_selftest(report=print) -> bool:
    """Run every criterion; returns True when all pass."""
    all_ok = True
    for number, (name, check) in enumerate(CRITERIA, start=1):
        try:
            check()
        except AssertionError as exc:
            all_ok = False
            report(f"FAIL {number}: {name}: {exc}")
        else:
            report(f"PASS {number}: {name}")
    report("selftest: all criteria passed" if all_ok else "selftest: FAILURES above")
    return all_ok
