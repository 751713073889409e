"""Document I/O: the writer's byte contract and the one-pass parser.

``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` is the reference
writer, and ``reference_parse`` below, the per-entry validation loop,
is the reference parser.  The golden ``cli/*.stdout`` files were written
by the ``json.dumps`` writer and must be reproduced byte for byte.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icochains import INTEGERS, MOD_P, AlgebraElem, GroupContext, ICochain, NormalizedCochain
from icochains.cli import (
    EXIT_OK,
    SCHEMA_VERSION,
    DocumentError,
    _check_vector,
    _context_from,
    _expect,
    _is_int,
    algebra_document,
    cochain_document,
    dumps_document,
    main,
    parse_algebra_document,
    parse_cochain_document,
)

GOLDEN = Path(__file__).parent / "golden"

# stdout of these commands, run from the golden directory, is pinned in
# golden/cli/<name>.stdout
CLI_GOLDEN = {
    "tau_p3r2_s0-0": ["tau", "--p", "3", "--r", "2", "--sig", "0,0"],
    "tau_p3r2_s1-1": ["tau", "--p", "3", "--r", "2", "--sig", "1,1"],
    "tau_p2r3_s1-1-1": ["tau", "--p", "2", "--r", "3", "--sig", "1,1,1"],
    "tau_p5r1_s3": ["tau", "--p", "5", "--r", "1", "--sig", "3"],
    "cup_h1_h1": ["cup", "--in", "h1_p3r1.json", "--in", "h1_p3r1.json"],
    "cup_z1_z1": ["cup", "--in", "z1_p2r1.json", "--in", "z1_p2r1.json"],
    "cup_f1_h1": ["cup", "--in", "cli/f1_p3r1.json", "--in", "h1_p3r1.json"],
    "d_f1": ["d", "--in", "cli/f1_p3r1.json"],
    "d_const": ["d", "--in", "cli/const_p5r1.json"],
    "d_zbig_normalized": ["d", "--in", "cli/zbig_p3r2_normalized.json"],
    "d_zbig_icochain": ["d", "--in", "cli/zbig_p3r2_icochain.json"],
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(CLI_GOLDEN[name])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / "cli" / f"{name}.stdout").read_text()


# -- the writer ---------------------------------------------------------

def reference_dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


PRIMES = (2, 3, 5, 7)
KINDS = ("normalized", "icochain")
Z_VALUES = st.one_of(st.integers(-99, 99), st.integers(2**63 - 2, 2**80),
                     st.integers(-(2**80), -(2**63) + 2)).filter(bool)


@st.composite
def cochains(draw):
    """(cochain, kind) over both kinds and rings, r = 1..4 and degrees
    0..3, drawn from a few exponent vectors so that vectors repeat."""
    p, r, n = draw(st.sampled_from(PRIMES)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    ring, kind = draw(st.sampled_from((MOD_P, INTEGERS))), draw(st.sampled_from(KINDS))
    vector = st.tuples(*[st.integers(0, p - 1)] * r).filter(any)
    pool = draw(st.lists(vector, min_size=1, max_size=4, unique=True))
    keys = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * n), max_size=12, unique=True))
    value = st.integers(1, p - 1) if ring == MOD_P else Z_VALUES
    values = {key: draw(value) for key in keys}
    cls = NormalizedCochain if kind == "normalized" else ICochain
    return cls(GroupContext(p, r), n, ring, values), kind


@given(cochains())
@example((ICochain(GroupContext(3, 2), 0, INTEGERS, {(): -(2**70)}), "icochain"))
@example((NormalizedCochain(GroupContext(5, 4), 2, MOD_P, {}), "normalized"))
@example((ICochain(GroupContext(2, 1), 3, INTEGERS, {((1,),) * 3: 2**64}), "icochain"))
@settings(max_examples=300, deadline=None)
def test_writer_is_json_dumps_and_round_trips(case):
    f, kind = case
    doc = cochain_document(f, kind)
    text = dumps_document(doc)
    assert text == reference_dumps(doc)
    assert dumps_document(json.loads(text)) == text  # list vectors as well as tuples
    assert parse_cochain_document(text) == (f, kind)


@given(st.sampled_from(PRIMES), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_algebra_writer_is_json_dumps_and_round_trips(p, r, data):
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 9)] * r),
                                      st.integers(1, p - 1), max_size=6))
    e = AlgebraElem(GroupContext(p, r), terms)
    doc = algebra_document(e)
    text = dumps_document(doc)
    assert text == reference_dumps(doc)
    assert parse_algebra_document(text).terms == e.terms


# -- the parser ---------------------------------------------------------

def reference_parse(text: str):
    """The per-entry validation loop: every vector of every key goes
    through ``_check_vector``."""
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
    values: dict = {}
    for idx, entry in enumerate(entries):
        where = f"entries[{idx}]"
        _expect(isinstance(entry, dict) and set(entry) == {"key", "value"},
                f"{where}: must be an object with exactly 'key' and 'value'")
        key_raw = entry["key"]
        _expect(isinstance(key_raw, list) and len(key_raw) == n,
                f"{where}.key: expected a list of {n} exponent vectors")
        key = tuple(_check_vector(v, ctx, f"{where}.key[{j}]", allow_zero=False)
                    for j, v in enumerate(key_raw))
        _expect(key not in values, f"{where}: duplicate key")
        value = entry["value"]
        _expect(_is_int(value) and value != 0,
                f"{where}.value: must be a nonzero integer")
        if ring == MOD_P:
            _expect(0 < value < ctx.p,
                    f"{where}.value: mod-p values must lie in [1, {ctx.p})")
        values[key] = value
    cls = NormalizedCochain if kind == "normalized" else ICochain
    return cls(ctx, n, ring, values), kind


def outcome(parse, text):
    try:
        return parse(text)
    except DocumentError as exc:
        return "error", str(exc)


# Mutations of one exponent vector; True, False and 1.0 compare and hash
# equal to the ints they replace.
VECTOR_MUTATIONS = {
    "bool": lambda vec, p: [bool(vec[0]) if vec[0] < 2 else True] + vec[1:],
    "float": lambda vec, p: [float(vec[0])] + vec[1:],
    "out of range": lambda vec, p: [p] + vec[1:],
    "zero vector": lambda vec, p: [0] * len(vec),
    "wrong length": lambda vec, p: vec + [1],
}


@given(cochains(), st.data())
@settings(max_examples=300, deadline=None)
def test_parser_agrees_with_reference_on_mutated_documents(case, data):
    f, kind = case
    obj = json.loads(dumps_document(cochain_document(f, kind)))
    entries = obj["entries"]
    sites = [(i, j) for i, e in enumerate(entries) for j in range(len(e["key"]))]
    choices = ["none", "value", "duplicate"] + (["vector"] if sites else [])
    mutation = data.draw(st.sampled_from(choices), label="mutation")
    if mutation == "vector":
        # the first occurrence of a vector, or a repeated one when there is one
        seen, first, repeated = set(), [], []
        for i, j in sites:
            vec = tuple(entries[i]["key"][j])
            (repeated if vec in seen else first).append((i, j))
            seen.add(vec)
        group = data.draw(st.sampled_from([first, repeated] if repeated else [first]))
        i, j = data.draw(st.sampled_from(group), label="site")
        change = data.draw(st.sampled_from(sorted(VECTOR_MUTATIONS)), label="change")
        entries[i]["key"][j] = VECTOR_MUTATIONS[change](entries[i]["key"][j], f.ctx.p)
    elif mutation == "value" and entries:
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        value = entries[i]["value"]
        entries[i]["value"] = data.draw(st.sampled_from(
            [True, False, float(value), value + f.ctx.p, 0]), label="value")
    elif mutation == "duplicate" and len(entries) > 1:
        a, b = data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=2,
                                  max_size=2, unique=True), label="entries")
        entries[b]["key"] = entries[a]["key"]
    text = json.dumps(obj)
    assert outcome(parse_cochain_document, text) == outcome(reference_parse, text)


def test_repeated_vector_with_equal_bool_or_float_is_rejected():
    # [1, 0] is cached from entries[0]; [true, 0] and [1.0, 0] equal it
    for bad in ("true", "1.0"):
        text = json.dumps({
            "schema_version": "1", "p": 3, "r": 2, "n": 1, "kind": "icochain",
            "coeff_ring": "Fp", "entries": [{"key": [[1, 0]], "value": 1},
                                            {"key": [[9, 9]], "value": 1}],
        }).replace("[9, 9]", f"[{bad}, 0]")
        with pytest.raises(DocumentError,
                           match=r"entries\[1\]\.key\[0\]: exponents must be integers"):
            parse_cochain_document(text)
