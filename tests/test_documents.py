"""Document I/O: the writer's byte contract and the one-pass parser.

``json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\\n"`` is the
reference writer of cochain documents (schema 3: a column of slot codes
and a column of values), and ``json.dumps(doc, indent=2, sort_keys=True)
+ "\\n"`` that of algebra documents (schema 1).  ``reference_parse``
below, an item-by-item validation loop, is the reference parser of both
cochain schemas the CLI reads: schema 1, whose entries are objects keyed
by lists of exponent vectors, and schema 3.  The golden ``cli/*.stdout``
files were written by the ``json.dumps`` writer and must be reproduced
byte for byte; ``cli/schema2/*.stdout`` are the same outputs as schema 2
wrote them, whose keys were lists of slot codes inside entry objects.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icochains import INTEGERS, MOD_P, AlgebraElem, GroupContext, ICochain, documents
from icochains.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    algebra_document,
    cochain_document,
    dumps_document,
    main,
    parse_cochain_document,
)
from icochains.documents import _check_vector, _context_from, _expect, _is_int
from icochains.group_ring import DocumentError
from conftest import algebra_terms

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


def column_entries(obj: dict) -> list:
    """The (key, value) pairs of a schema-3 document, keys as tuples of
    slot codes, in document order."""
    n, values = obj["n"], obj["values"]
    keys = zip(*[iter(obj["slots"])] * n) if n else [()] * len(values)
    return list(zip(keys, values))


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_golden_output_holds_the_entries_of_its_schema_2_file(name):
    # the outputs were re-pinned from schema 2: the same header, and the
    # same keys, as slot codes, with the same values in the same order
    new = json.loads((GOLDEN / "cli" / f"{name}.stdout").read_text())
    old = json.loads((GOLDEN / "cli" / "schema2" / f"{name}.stdout").read_text())
    assert (new.pop("schema_version"), old.pop("schema_version")) == ("3", "2")
    assert column_entries(new) == [(tuple(e["key"]), e["value"]) for e in old.pop("entries")]
    del new["slots"], new["values"]
    assert new == old


@pytest.mark.parametrize("argv", [
    ["d", "--in"], ["check-cocycle", "--in"], ["invert", "--unchecked", "--in"],
    ["cup", "--in", "h1_p3r1.json", "--in"],
])
def test_schema_3_input_gives_the_output_of_its_schema_1_twin(argv, capsys, monkeypatch):
    # the golden inputs stay schema 1; f1_p3r1_schema3.json holds the
    # same entries as f1_p3r1.json
    monkeypatch.chdir(GOLDEN)
    outcomes = []
    for path in ("cli/f1_p3r1.json", "cli/f1_p3r1_schema3.json"):
        code = main(argv + [path])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (EXIT_OK, 2) and outcomes[0][1].out


# -- the writer ---------------------------------------------------------

def reference_dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def reference_algebra_dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def slot_code(p: int, u) -> int:
    """The document code of an exponent vector: the vector read in base p,
    first exponent most significant."""
    return sum(a * p ** (len(u) - 1 - i) for i, a in enumerate(u))


def exponent_vector(p: int, r: int, code: int) -> list:
    """The exponent vector of an element's code, the inverse of ``slot_code``."""
    return [code // p ** (r - 1 - i) % p for i in range(r)]


def schema_1_document(f: ICochain, kind: str) -> dict:
    """f as a schema-1 document, whose keys are lists of exponent vectors."""
    p, r = f.ctx.p, f.ctx.r
    return {"schema_version": "1", "p": p, "r": r, "n": f.degree, "kind": kind,
            "coeff_ring": f.ring,
            "entries": [{"key": [exponent_vector(p, r, u) for u in key], "value": c}
                        for key, c in sorted(f.values.items())]}


def document(f: ICochain, kind: str, schema: str) -> dict:
    """f as a JSON object of the given schema, as a reader gets it."""
    if schema == "1":
        return json.loads(json.dumps(schema_1_document(f, kind), indent=2, sort_keys=True))
    return json.loads(dumps_document(cochain_document(f, kind)))


PRIMES = (2, 3, 5, 7)
KINDS = ("normalized", "icochain")
SCHEMAS = ("1", "3")
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
    return ICochain(GroupContext(p, r), n, ring, values), kind


@given(cochains())
@example((ICochain(GroupContext(3, 2), 0, INTEGERS, {(): -(2**70)}), "icochain"))
@example((ICochain(GroupContext(5, 4), 2, MOD_P, {}), "normalized"))
@example((ICochain(GroupContext(2, 1), 3, INTEGERS, {((1,),) * 3: 2**64}), "icochain"))
@example((ICochain(GroupContext(7, 3), 2, MOD_P, {((6, 6, 6), (0, 0, 1)): 3}), "icochain"))
@settings(max_examples=300, deadline=None)
def test_writer_is_json_dumps_and_round_trips(case):
    f, kind = case
    doc = cochain_document(f, kind)
    text = dumps_document(doc)
    assert text == reference_dumps(doc)
    assert dumps_document(json.loads(text)) == text
    # the entries in key order, each slot the element's code as it is
    keys = sorted(f.values)
    obj = json.loads(text)
    assert obj["slots"] == [u for key in keys for u in key]
    assert obj["values"] == [f.values[key] for key in keys]
    schema_1_text = json.dumps(schema_1_document(f, kind), indent=2, sort_keys=True)
    assert parse_cochain_document(text) == parse_cochain_document(schema_1_text) == (f, kind)


def with_entries(doc: dict, entries: list) -> dict:
    """A schema-3 document holding the given (key, value) pairs, keys as
    tuples of slot codes, in the given order."""
    return dict(doc, slots=[code for key, _ in entries for code in key],
                values=[value for _, value in entries])


@given(cochains(), st.data())
@settings(max_examples=300, deadline=None)
def test_writer_is_json_dumps_on_entries_in_any_order(case, data):
    # the writer renders each distinct int of a column once, whatever the
    # order in which the ints come
    f, kind = case
    doc = cochain_document(f, kind)
    doc = with_entries(doc, data.draw(st.permutations(column_entries(doc)), label="entries"))
    text = dumps_document(doc)
    assert text == reference_dumps(doc)
    assert dumps_document(json.loads(text)) == text


@pytest.mark.parametrize("n,keys", [
    (0, [()]),
    (1, []),
    (1, [(2,), (1,)]),
    (2, [(1, 1), (2, 1), (1, 2), (2, 2)]),
    (3, [(1, 1, 2), (1, 2, 2), (1, 1, 1)]),
])
def test_writer_on_chosen_entry_orders(n, keys):
    doc = cochain_document(ICochain.zero(GroupContext(3, 1), n), "icochain")
    doc = with_entries(doc, [(key, 1 + i % 2) for i, key in enumerate(keys)])
    assert dumps_document(doc) == reference_dumps(doc)


@given(st.sampled_from(PRIMES), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_algebra_writer_is_json_dumps_and_round_trips(p, r, data):
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 9)] * r),
                                      st.integers(1, p - 1), max_size=6))
    e = AlgebraElem(GroupContext(p, r), terms)
    doc = algebra_document(e)
    text = dumps_document(doc)
    assert text == reference_algebra_dumps(doc)
    assert doc["schema_version"] == "1"
    assert algebra_terms(text) == e.terms


# -- the parser ---------------------------------------------------------

def reference_check_code(code, ctx, where):
    """A schema-3 slot, checked against p^r itself."""
    _expect(_is_int(code) and 1 <= code < ctx.p ** ctx.r,
            f"{where}: slot codes must be integers in [1, {ctx.p}^{ctx.r})")
    return tuple(code // ctx.p ** (ctx.r - 1 - i) % ctx.p for i in range(ctx.r))


def reference_check_value(value, ctx, ring, where):
    _expect(_is_int(value) and value != 0, f"{where}: must be a nonzero integer")
    if ring == MOD_P:
        _expect(0 < value < ctx.p, f"{where}: mod-p values must lie in [1, {ctx.p})")
    return value


def reference_parse(text: str):
    """The item-by-item validation loop.  Schema 1: every entry, then every
    slot of its key through ``_check_vector``, then its value.  Schema 3:
    the two columns' lengths, every value, every slot through
    ``reference_check_code``, then the keys for a repeat."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    _expect(isinstance(obj, dict), "document must be a JSON object")
    schema = obj.get("schema_version")
    _expect(schema in SCHEMAS, "schema_version must be '1' or '3'")
    ctx = _context_from(obj, "document")
    n = obj.get("n")
    _expect(_is_int(n) and n >= 0, "field 'n' must be a nonnegative integer")
    kind = obj.get("kind")
    _expect(kind in ("normalized", "icochain"),
            "field 'kind' must be 'normalized' or 'icochain'")
    ring = obj.get("coeff_ring")
    _expect(ring in (INTEGERS, MOD_P), "field 'coeff_ring' must be 'Z' or 'Fp'")
    values: dict = {}
    if schema == "3":
        slots, column = obj.get("slots"), obj.get("values")
        _expect(isinstance(slots, list), "field 'slots' must be a list")
        _expect(isinstance(column, list), "field 'values' must be a list")
        _expect(len(slots) == n * len(column), f"field 'slots': expected n x len(values) = "
                                               f"{n} x {len(column)} slot codes, got {len(slots)}")
        column = [reference_check_value(v, ctx, ring, f"values[{i}]")
                  for i, v in enumerate(column)]
        slots = [reference_check_code(code, ctx, f"slots[{k}]") for k, code in enumerate(slots)]
        for i, value in enumerate(column):
            key = tuple(slots[i * n:(i + 1) * n])
            _expect(key not in values, f"values[{i}]: duplicate key slots[{i * n}:{(i + 1) * n}]")
            values[key] = value
        return ICochain(ctx, n, ring, values), kind
    entries = obj.get("entries")
    _expect(isinstance(entries, list), "field 'entries' must be a list")
    for idx, entry in enumerate(entries):
        where = f"entries[{idx}]"
        _expect(isinstance(entry, dict) and set(entry) == {"key", "value"},
                f"{where}: must be an object with exactly 'key' and 'value'")
        key_raw = entry["key"]
        _expect(isinstance(key_raw, list) and len(key_raw) == n,
                f"{where}.key: expected a list of {n} exponent vectors")
        key = tuple(_check_vector(v, ctx, f"{where}.key[{j}]") for j, v in enumerate(key_raw))
        _expect(key not in values, f"{where}: duplicate key")
        values[key] = reference_check_value(entry["value"], ctx, ring, f"{where}.value")
    return ICochain(ctx, n, ring, values), kind


def outcome(parse, text):
    try:
        return parse(text)
    except DocumentError as exc:
        return "error", str(exc)


# Mutations of one exponent vector; True, False and 1.0 compare and hash
# equal to the ints they replace.  EXPONENT_FLOAT stands for the literal
# 1e0, which json.dumps never writes, until the text is made.
EXPONENT_FLOAT = "1e0 here"
VECTOR_MUTATIONS = {
    "bool": lambda vec, p: [bool(vec[0]) if vec[0] < 2 else True] + vec[1:],
    "float": lambda vec, p: [float(vec[0])] + vec[1:],
    "1e0": lambda vec, p: [EXPONENT_FLOAT] + vec[1:],
    "nan": lambda vec, p: [float("nan")] + vec[1:],
    "infinity": lambda vec, p: vec[:-1] + [float("inf")],
    "str": lambda vec, p: [str(vec[0])] + vec[1:],
    "null": lambda vec, p: vec[:-1] + [None],
    "nested list": lambda vec, p: [vec[:1]] + vec[1:],
    "negative": lambda vec, p: [-1] + vec[1:],
    "out of range": lambda vec, p: [p] + vec[1:],
    "zero vector": lambda vec, p: [0] * len(vec),
    "wrong length": lambda vec, p: vec + [1],
    "not a list": lambda vec, p: vec[0],
}

# Mutations of one slot code, given the code and p^r.
CODE_MUTATIONS = {
    "bool": lambda code, top: code == 1 or bool(code),
    "float": lambda code, top: float(code),
    "1e0": lambda code, top: EXPONENT_FLOAT,
    "nan": lambda code, top: float("nan"),
    "infinity": lambda code, top: float("inf"),
    "str": lambda code, top: str(code),
    "null": lambda code, top: None,
    "nested list": lambda code, top: [code],
    "zero": lambda code, top: 0,
    "negative": lambda code, top: -code,
    "p^r": lambda code, top: top,
    "past p^r": lambda code, top: code + top,
    "huge": lambda code, top: top ** 40 + code,
}

# Mutations of one schema-1 entry: each maps the entry and a valid slot
# to the entry's replacement.
ENTRY_MUTATIONS = {
    "extra field": lambda entry, slot: {**entry, "extra": 1},
    "missing key": lambda entry, slot: {"value": entry["value"]},
    "missing value": lambda entry, slot: {"key": entry["key"]},
    "key not a list": lambda entry, slot: {**entry, "key": "k" * len(entry["key"])},
    "key null": lambda entry, slot: {**entry, "key": None},
    "long key": lambda entry, slot: {**entry, "key": entry["key"] + [slot]},
    "short key": lambda entry, slot: {**entry, "key": entry["key"][:-1]},
    "list": lambda entry, slot: [entry["key"], entry["value"]],
    "null": lambda entry, slot: None,
}

# Mutations of the columns of a schema-3 document: each maps the document
# and a valid slot code to the document's replacement.
COLUMN_MUTATIONS = {
    "missing slots": lambda obj, code: {k: v for k, v in obj.items() if k != "slots"},
    "missing values": lambda obj, code: {k: v for k, v in obj.items() if k != "values"},
    "slots null": lambda obj, code: dict(obj, slots=None),
    "values an object": lambda obj, code: dict(obj, values={"0": 1}),
    "slots a string": lambda obj, code: dict(obj, slots=",".join(map(str, obj["slots"]))),
    "extra slot": lambda obj, code: dict(obj, slots=obj["slots"] + [code]),
    "short slots": lambda obj, code: dict(obj, slots=obj["slots"][:-1]),
    "extra value": lambda obj, code: dict(obj, values=obj["values"] + [1]),
    "short values": lambda obj, code: dict(obj, values=obj["values"][:-1]),
    "nested slots": lambda obj, code: dict(obj, slots=[obj["slots"]]),
}

def value_changes(value: int, p: int) -> list:
    """Replacements of one value: equal bool or float, out of range, zero,
    negated, null, a string."""
    return [True, False, float(value), value + p, 0, -value, None, str(value)]


def a_slot(ctx: GroupContext, schema: str):
    """A valid slot of the schema: the vector (1, ..., 1) or its code."""
    return [1] * ctx.r if schema == "1" else slot_code(ctx.p, (1,) * ctx.r)


def draw_slot_site(data, sites: list, slot_at) -> tuple:
    """The first occurrence of a slot, or a repeated one when there is one."""
    seen, first, repeated = set(), [], []
    for site in sites:
        slot = json.dumps(slot_at(site))
        (repeated if slot in seen else first).append(site)
        seen.add(slot)
    group = data.draw(st.sampled_from([first, repeated] if repeated else [first]))
    return data.draw(st.sampled_from(group), label="site")


def mutate_schema_1(obj: dict, f: ICochain, mutation: str, data) -> None:
    entries = obj["entries"]
    if mutation == "slot":
        sites = [(i, j) for i, e in enumerate(entries) for j in range(len(e["key"]))]
        i, j = draw_slot_site(data, sites, lambda site: entries[site[0]]["key"][site[1]])
        change = data.draw(st.sampled_from(sorted(VECTOR_MUTATIONS)), label="change")
        entries[i]["key"][j] = VECTOR_MUTATIONS[change](entries[i]["key"][j], f.ctx.p)
    elif mutation == "structure":
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        change = data.draw(st.sampled_from(sorted(ENTRY_MUTATIONS)), label="change")
        entries[i] = ENTRY_MUTATIONS[change](entries[i], a_slot(f.ctx, "1"))
    elif mutation == "value":
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        entries[i]["value"] = data.draw(st.sampled_from(
            value_changes(entries[i]["value"], f.ctx.p)), label="value")
    elif mutation == "duplicate":
        a, b = data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=2,
                                  max_size=2, unique=True), label="entries")
        entries[b]["key"] = entries[a]["key"]


def mutate_schema_3(obj: dict, f: ICochain, mutation: str, data) -> dict:
    slots, values, n = obj["slots"], obj["values"], f.degree
    if mutation == "slot":
        k = draw_slot_site(data, list(range(len(slots))), slots.__getitem__)
        change = data.draw(st.sampled_from(sorted(CODE_MUTATIONS)), label="change")
        slots[k] = CODE_MUTATIONS[change](slots[k], f.ctx.p ** f.ctx.r)
    elif mutation == "structure":
        change = data.draw(st.sampled_from(sorted(COLUMN_MUTATIONS)), label="change")
        return COLUMN_MUTATIONS[change](obj, a_slot(f.ctx, "3"))
    elif mutation == "value":
        i = data.draw(st.integers(0, len(values) - 1), label="entry")
        values[i] = data.draw(st.sampled_from(value_changes(values[i], f.ctx.p)), label="value")
    elif mutation == "duplicate":
        a, b = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=2,
                                  max_size=2, unique=True), label="entries")
        slots[b * n:(b + 1) * n] = slots[a * n:(a + 1) * n]
    return obj


@given(cochains(), st.sampled_from(SCHEMAS), st.data())
@example((ICochain(GroupContext(3, 1), 0, MOD_P, {(): 2}), "normalized"), "1", None)
@example((ICochain(GroupContext(2, 2), 0, INTEGERS, {(): -7}), "icochain"), "3", None)
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_reference_on_mutated_documents(case, schema, data):
    f, kind = case
    obj = document(f, kind, schema)
    count, slot_count = len(f.values), len(f.values) * f.degree
    choices = ["none", "string field"]
    choices += ["value", "structure"] if count else []
    choices += ["slot"] if slot_count else []
    choices += ["duplicate"] if count > 1 else []
    if schema == "3" and not count:
        choices.append("structure")  # the columns' lengths and types
    mutation = data.draw(st.sampled_from(choices), label="mutation") if data else "none"
    if mutation == "string field":
        # a field the parser does not read, whose text holds JSON literals
        obj["note"] = data.draw(st.sampled_from(["true", "false", "1e0", "null"]), label="note")
    elif mutation != "none" and schema == "1":
        mutate_schema_1(obj, f, mutation, data)
    elif mutation != "none":
        obj = mutate_schema_3(obj, f, mutation, data)
    text = json.dumps(obj).replace(json.dumps(EXPONENT_FLOAT), "1e0")
    assert outcome(parse_cochain_document, text) == outcome(reference_parse, text)


# Sorted, its entries are ((1,0),(1,0)), ((1,0),(2,1)) and ((2,1),(1,0)):
# entries[0].key[0] is the first [1, 0] (code 3) and entries[2].key[1] a
# repeat.  As schema 3 these are slots[0] and slots[5].
FIXED_VALUES = {((1, 0), (2, 1)): 1, ((1, 0), (1, 0)): 2, ((2, 1), (1, 0)): 1}


def fixed_document(ring=MOD_P, schema="1") -> dict:
    return document(ICochain(GroupContext(3, 2), 2, ring, FIXED_VALUES), "icochain", schema)


def schema_2_document(ring=MOD_P) -> dict:
    """The fixed document in the retired schema 2: entry objects whose
    keys are lists of slot codes."""
    obj = fixed_document(ring, "3")
    entries = [{"key": list(key), "value": value} for key, value in column_entries(obj)]
    del obj["slots"], obj["values"]
    return dict(obj, schema_version="2", entries=entries)


def assert_parsers_agree(obj: dict):
    text = json.dumps(obj).replace(json.dumps(EXPONENT_FLOAT), "1e0")
    expected = outcome(reference_parse, text)
    assert expected[0] == "error"
    assert outcome(parse_cochain_document, text) == expected


def assert_retired(obj: dict):
    # schema 2 is no longer read: whatever its entries hold, the document
    # is refused for its schema_version before any entry is looked at
    assert_parsers_agree(obj)
    assert outcome(parse_cochain_document, json.dumps(obj)) == (
        "error", "schema_version must be '1' or '3'")


@pytest.mark.parametrize("change", sorted(VECTOR_MUTATIONS))
@pytest.mark.parametrize("i,j", [(0, 0), (2, 1)])
def test_each_vector_mutation_gets_the_reference_error(change, i, j):
    obj = fixed_document()
    obj["entries"][i]["key"][j] = VECTOR_MUTATIONS[change](obj["entries"][i]["key"][j], 3)
    assert_parsers_agree(obj)


@pytest.mark.parametrize("change", sorted(CODE_MUTATIONS))
@pytest.mark.parametrize("i,j", [(0, 0), (2, 1)])
def test_each_code_mutation_gets_the_reference_error(change, i, j):
    obj = fixed_document(schema="3")
    k = 2 * i + j
    obj["slots"][k] = CODE_MUTATIONS[change](obj["slots"][k], 9)
    assert_parsers_agree(obj)


@pytest.mark.parametrize("change", sorted(ENTRY_MUTATIONS))
@pytest.mark.parametrize("i", [0, 2])
def test_each_entry_mutation_gets_the_reference_error(change, i):
    obj = fixed_document()
    obj["entries"][i] = ENTRY_MUTATIONS[change](obj["entries"][i], [1, 1])
    assert_parsers_agree(obj)


@pytest.mark.parametrize("change", sorted(ENTRY_MUTATIONS))
@pytest.mark.parametrize("i", [0, 2])
def test_each_entry_mutation_of_a_schema_2_document_gets_the_reference_error(change, i):
    obj = schema_2_document()
    obj["entries"][i] = ENTRY_MUTATIONS[change](obj["entries"][i], 4)
    assert_retired(obj)


@pytest.mark.parametrize("change", sorted(COLUMN_MUTATIONS))
def test_each_column_mutation_of_a_schema_3_document_gets_the_reference_error(change):
    assert_parsers_agree(COLUMN_MUTATIONS[change](fixed_document(schema="3"), 4))


def test_duplicate_key_gets_the_reference_error():
    obj = fixed_document()
    obj["entries"][2]["key"] = obj["entries"][0]["key"]
    assert_parsers_agree(obj)


def test_duplicate_key_of_a_schema_2_document_gets_the_reference_error():
    obj = schema_2_document()
    obj["entries"][2]["key"] = obj["entries"][0]["key"]
    assert_retired(obj)


def test_duplicate_key_of_a_schema_3_document_gets_the_reference_error():
    obj = fixed_document(schema="3")
    obj["slots"][4:6] = obj["slots"][0:2]
    assert_parsers_agree(obj)
    assert outcome(parse_cochain_document, json.dumps(obj)) == (
        "error", "values[2]: duplicate key slots[4:6]")


VALUE_MUTATIONS = [(MOD_P, 0), (MOD_P, 3), (MOD_P, -1), (MOD_P, True), (MOD_P, 1.0),
                   (INTEGERS, 0), (INTEGERS, False), (INTEGERS, -2.0), (INTEGERS, "-2"),
                   (INTEGERS, None)]


@pytest.mark.parametrize("ring,value", VALUE_MUTATIONS)
def test_each_value_mutation_gets_the_reference_error(ring, value):
    obj = fixed_document(ring)
    obj["entries"][1]["value"] = value
    assert_parsers_agree(obj)


@pytest.mark.parametrize("ring,value", VALUE_MUTATIONS)
def test_each_value_mutation_of_a_schema_2_document_gets_the_reference_error(ring, value):
    obj = schema_2_document(ring)
    obj["entries"][1]["value"] = value
    assert_retired(obj)


@pytest.mark.parametrize("ring,value", VALUE_MUTATIONS)
def test_each_value_mutation_of_a_schema_3_document_gets_the_reference_error(ring, value):
    obj = fixed_document(ring, schema="3")
    obj["values"][1] = value
    assert_parsers_agree(obj)


@given(cochains(), st.sampled_from(SCHEMAS))
@example((ICochain(GroupContext(3, 1), 0, MOD_P, {(): 2}), "normalized"), "1")
@example((ICochain(GroupContext(2, 2), 0, INTEGERS, {(): -7}), "icochain"), "3")
@example((ICochain(GroupContext(5, 1), 1, INTEGERS, {((1,),): -(2**70), ((2,),): -1}),
          "icochain"), "3")
@settings(max_examples=200, deadline=None)
def test_valid_documents_pass_the_column_checks(case, schema):
    # Z values of either sign and n = 0 keys among them: only an invalid
    # document reaches an item-by-item check
    def per_item(*args):
        raise AssertionError("a valid document left the column checks")

    f, kind = case
    text = json.dumps(document(f, kind, schema))
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_raise_first_entry_error", "_check_code", "_check_value"):
            patch.setattr(documents, name, per_item)
        assert parse_cochain_document(text) == (f, kind)


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


def test_repeated_code_with_equal_bool_or_float_is_rejected():
    # slots[0] and values[0] are 1; true and 1.0 equal 1, and hash as it
    # does, so a set of either column would hold them as one item
    for bad in ("true", "1.0", "1e0"):
        for column, where, message in (("slots", "slots[1]", "slot codes must be integers"),
                                       ("values", "values[1]", "must be a nonzero integer")):
            obj = {"schema_version": "3", "p": 3, "r": 2, "n": 1, "kind": "icochain",
                   "coeff_ring": "Fp", "slots": [1, 2], "values": [1, 1]}
            obj[column][1] = 99
            text = json.dumps(obj).replace("99", bad)
            with pytest.raises(DocumentError, match=f"^{re.escape(where)}: {message}"):
                parse_cochain_document(text)


# -- hostile schema-3 input -----------------------------------------------

def columns_document(p: int, r: int, n: int, slots: list, values: list, **fields) -> str:
    return json.dumps({"schema_version": "3", "p": p, "r": r, "n": n, "kind": "icochain",
                       "coeff_ring": "Fp", "slots": slots, "values": values, **fields})


def one_entry_document(p: int, r: int, key: list) -> str:
    return columns_document(p, r, len(key), key, [1])


@pytest.mark.parametrize("command", [["invert"], ["invert", "--unchecked"],
                                     ["check-cocycle"], ["d"]])
def test_a_huge_r_is_refused_before_any_code_is_decoded(command, tmp_path, capsys):
    # every later operation on an element reads its r digits, and a
    # schema-1 document would have to spell out the 10^9 of them
    path = tmp_path / "wide.json"
    path.write_text(one_entry_document(2, 10**9, [1]))
    start = time.perf_counter()
    code = main(command + ["--in", str(path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET
    assert err.count("\n") == 1 and "1000000000 entries" in err
    assert elapsed < 2.0


@pytest.mark.parametrize("bad", ["0", "9", "-1", "true", "1.0", "[1]", "[[1, 0]]", str(9**50)])
def test_a_bad_code_exits_1_naming_its_slot(bad, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(one_entry_document(3, 2, [4, 99]).replace("99", bad))
    code = main(["check-cocycle", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert err == "error: slots[1]: slot codes must be integers in [1, 3^2)\n"


def test_the_first_bad_code_is_found_at_a_huge_r_without_p_to_the_r():
    # slots[1] sends the column to the item-by-item loop, whose code check
    # stops at the bits of each code: p^r at r = 10^9 is never computed
    text = columns_document(3, 10**9, 2, [1, 0, 1, 1], [1, 1])
    start = time.perf_counter()
    with pytest.raises(DocumentError, match=r"^slots\[1\]: .*\[1, 3\^1000000000\)$"):
        parse_cochain_document(text)
    assert time.perf_counter() - start < 2.0


# Hostile schema-3 documents at p = 3, r = 2, n = 2, each with the one
# line of stderr it gets.
HOSTILE_COLUMNS = {
    "lengths": ({"slots": [4, 5, 7], "values": [1, 2]},
                "field 'slots': expected n x len(values) = 2 x 2 slot codes, got 3"),
    "no slots": ({"slots": None}, "field 'slots' must be a list"),
    "no values": ({"values": None}, "field 'values' must be a list"),
    "true slot": ({"slots": [4, "true", 5, 7]}, "slots[1]: slot codes must be integers in [1, 3^2)"),
    "float slot": ({"slots": [4, 5, 1.0, 7]}, "slots[2]: slot codes must be integers in [1, 3^2)"),
    "true value": ({"values": [1, "true"]}, "values[1]: must be a nonzero integer"),
    "float value": ({"values": [1.0, 2]}, "values[0]: must be a nonzero integer"),
    "slot 0": ({"slots": [4, 5, 0, 7]}, "slots[2]: slot codes must be integers in [1, 3^2)"),
    "slot p^r": ({"slots": [4, 9, 5, 7]}, "slots[1]: slot codes must be integers in [1, 3^2)"),
    "value 0": ({"values": [0, 1]}, "values[0]: must be a nonzero integer"),
    "value p": ({"values": [1, 3]}, "values[1]: mod-p values must lie in [1, 3)"),
    "duplicate": ({"slots": [4, 5, 4, 5]}, "values[1]: duplicate key slots[2:4]"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_COLUMNS))
def test_hostile_columns_exit_1_with_one_line_naming_the_item(name, tmp_path, capsys):
    fields, message = HOSTILE_COLUMNS[name]
    obj = json.loads(columns_document(3, 2, 2, [4, 5, 5, 7], [1, 2]))
    obj.update(fields)
    for column in ("slots", "values"):
        if obj[column] is None:
            del obj[column]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(obj).replace('"true"', "true"))
    for command in (["check-cocycle"], ["invert"], ["d"]):
        code = main(command + ["--in", str(path)])
        assert (code, capsys.readouterr().err) == (EXIT_INVALID, f"error: {message}\n")
    # and as a process, where the CLI module runs as __main__
    result = subprocess.run([sys.executable, "-m", "icochains.cli", "invert", "--in", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_INVALID, "", f"error: {message}\n")
