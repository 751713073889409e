"""Document I/O: the writer's byte contract and the one-pass parser.

``json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\\n"`` is the
reference writer of cochain documents (schema 2, keys as slot codes), and
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` that of algebra
documents (schema 1).  ``reference_parse`` below, the per-entry
validation loop, is the reference parser of both cochain schemas:
schema 1, whose keys are lists of exponent vectors, and schema 2.  The
golden ``cli/*.stdout`` files were written by the ``json.dumps`` writer
and must be reproduced byte for byte.
"""

import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icochains import INTEGERS, MOD_P, AlgebraElem, GroupContext, ICochain, cli
from icochains.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    DocumentError,
    _check_vector,
    _context_from,
    _expect,
    _is_int,
    algebra_document,
    cochain_document,
    dumps_document,
    main,
    parse_cochain_document,
)
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


@pytest.mark.parametrize("argv", [
    ["d", "--in"], ["check-cocycle", "--in"], ["invert", "--unchecked", "--in"],
    ["cup", "--in", "h1_p3r1.json", "--in"],
])
def test_schema_2_input_gives_the_output_of_its_schema_1_twin(argv, capsys, monkeypatch):
    # the golden inputs stay schema 1; f1_p3r1_schema2.json holds the
    # same entries as f1_p3r1.json
    monkeypatch.chdir(GOLDEN)
    outcomes = []
    for path in ("cli/f1_p3r1.json", "cli/f1_p3r1_schema2.json"):
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


def schema_1_document(f: ICochain, kind: str) -> dict:
    """f as a schema-1 document, whose keys are lists of exponent vectors."""
    return {"schema_version": "1", "p": f.ctx.p, "r": f.ctx.r, "n": f.degree, "kind": kind,
            "coeff_ring": f.ring, "entries": [{"key": [list(u) for u in key], "value": c}
                                              for key, c in sorted(f.values.items())]}


def document(f: ICochain, kind: str, schema: str) -> dict:
    """f as a JSON object of the given schema, as a reader gets it."""
    if schema == "1":
        return json.loads(json.dumps(schema_1_document(f, kind), indent=2, sort_keys=True))
    return json.loads(dumps_document(cochain_document(f, kind)))


PRIMES = (2, 3, 5, 7)
KINDS = ("normalized", "icochain")
SCHEMAS = ("1", "2")
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
    assert dumps_document(json.loads(text)) == text  # list keys as well as tuples
    # the codes are the exponent vectors read in base p
    assert [entry["key"] for entry in json.loads(text)["entries"]] == [
        [slot_code(f.ctx.p, u) for u in key] for key in sorted(f.values)]
    schema_1_text = json.dumps(schema_1_document(f, kind), indent=2, sort_keys=True)
    assert parse_cochain_document(text) == parse_cochain_document(schema_1_text) == (f, kind)


@given(cochains(), st.data())
@settings(max_examples=300, deadline=None)
def test_writer_is_json_dumps_on_entries_in_any_order(case, data):
    # the writer reuses a key prefix only within a run of entries sharing
    # it, so runs that end, and prefixes that come back, must not leak
    f, kind = case
    doc = cochain_document(f, kind)
    doc["entries"] = data.draw(st.permutations(doc["entries"]), label="entries")
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
    doc["entries"] = [{"key": key, "value": 1 + i % 2} for i, key in enumerate(keys)]
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
    """A schema-2 slot, checked against p^r itself."""
    _expect(_is_int(code) and 1 <= code < ctx.p ** ctx.r,
            f"{where}: slot codes must be integers in [1, {ctx.p}^{ctx.r})")
    return tuple(code // ctx.p ** (ctx.r - 1 - i) % ctx.p for i in range(ctx.r))


def reference_parse(text: str):
    """The per-entry validation loop: every slot of every key goes through
    ``_check_vector`` (schema 1) or ``reference_check_code`` (schema 2)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    _expect(isinstance(obj, dict), "document must be a JSON object")
    schema = obj.get("schema_version")
    _expect(schema in SCHEMAS, "schema_version must be '1' or '2'")
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
    check_slot, slots = ((_check_vector, "exponent vectors") if schema == "1"
                         else (reference_check_code, "slot codes"))
    values: dict = {}
    for idx, entry in enumerate(entries):
        where = f"entries[{idx}]"
        _expect(isinstance(entry, dict) and set(entry) == {"key", "value"},
                f"{where}: must be an object with exactly 'key' and 'value'")
        key_raw = entry["key"]
        _expect(isinstance(key_raw, list) and len(key_raw) == n,
                f"{where}.key: expected a list of {n} {slots}")
        key = tuple(check_slot(v, ctx, f"{where}.key[{j}]") for j, v in enumerate(key_raw))
        _expect(key not in values, f"{where}: duplicate key")
        value = entry["value"]
        _expect(_is_int(value) and value != 0,
                f"{where}.value: must be a nonzero integer")
        if ring == MOD_P:
            _expect(0 < value < ctx.p,
                    f"{where}.value: mod-p values must lie in [1, {ctx.p})")
        values[key] = value
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

# Mutations of one entry: each maps the entry and a slot of the
# document's schema to the entry's replacement.
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


def a_slot(ctx: GroupContext, schema: str):
    """A valid slot of the schema: the vector (1, ..., 1) or its code."""
    return [1] * ctx.r if schema == "1" else slot_code(ctx.p, (1,) * ctx.r)


@given(cochains(), st.sampled_from(SCHEMAS), st.data())
@example((ICochain(GroupContext(3, 1), 0, MOD_P, {(): 2}), "normalized"), "1", None)
@example((ICochain(GroupContext(2, 2), 0, INTEGERS, {(): -7}), "icochain"), "2", None)
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_reference_on_mutated_documents(case, schema, data):
    f, kind = case
    obj = document(f, kind, schema)
    entries = obj["entries"]
    sites = [(i, j) for i, e in enumerate(entries) for j in range(len(e["key"]))]
    choices = ["none", "value", "duplicate", "string field"] + (["entry"] if entries else [])
    choices += ["slot"] if sites else []
    mutation = data.draw(st.sampled_from(choices), label="mutation") if data else "none"
    if mutation == "slot":
        # the first occurrence of a slot, or a repeated one when there is one
        seen, first, repeated = set(), [], []
        for i, j in sites:
            slot = json.dumps(entries[i]["key"][j])
            (repeated if slot in seen else first).append((i, j))
            seen.add(slot)
        group = data.draw(st.sampled_from([first, repeated] if repeated else [first]))
        i, j = data.draw(st.sampled_from(group), label="site")
        if schema == "1":
            change = data.draw(st.sampled_from(sorted(VECTOR_MUTATIONS)), label="change")
            new = VECTOR_MUTATIONS[change](entries[i]["key"][j], f.ctx.p)
        else:
            change = data.draw(st.sampled_from(sorted(CODE_MUTATIONS)), label="change")
            new = CODE_MUTATIONS[change](entries[i]["key"][j], f.ctx.p ** f.ctx.r)
        entries[i]["key"][j] = new
    elif mutation == "entry":
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        change = data.draw(st.sampled_from(sorted(ENTRY_MUTATIONS)), label="change")
        entries[i] = ENTRY_MUTATIONS[change](entries[i], a_slot(f.ctx, schema))
    elif mutation == "value" and entries:
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        value = entries[i]["value"]
        entries[i]["value"] = data.draw(st.sampled_from(
            [True, False, float(value), value + f.ctx.p, 0, -value, None, str(value)]),
            label="value")
    elif mutation == "duplicate" and len(entries) > 1:
        a, b = data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=2,
                                  max_size=2, unique=True), label="entries")
        entries[b]["key"] = entries[a]["key"]
    elif mutation == "string field":
        # a field the parser does not read, whose text holds JSON literals
        obj["note"] = data.draw(st.sampled_from(["true", "false", "1e0", "null"]), label="note")
    text = json.dumps(obj).replace(json.dumps(EXPONENT_FLOAT), "1e0")
    assert outcome(parse_cochain_document, text) == outcome(reference_parse, text)


# Sorted, its entries are ((1,0),(1,0)), ((1,0),(2,1)) and ((2,1),(1,0)):
# entries[0].key[0] is the first [1, 0] (code 3) and entries[2].key[1] a
# repeat.
FIXED_VALUES = {((1, 0), (2, 1)): 1, ((1, 0), (1, 0)): 2, ((2, 1), (1, 0)): 1}


def fixed_document(ring=MOD_P, schema="1") -> dict:
    return document(ICochain(GroupContext(3, 2), 2, ring, FIXED_VALUES), "icochain", schema)


def assert_parsers_agree(obj: dict):
    text = json.dumps(obj).replace(json.dumps(EXPONENT_FLOAT), "1e0")
    expected = outcome(reference_parse, text)
    assert expected[0] == "error"
    assert outcome(parse_cochain_document, text) == expected


@pytest.mark.parametrize("change", sorted(VECTOR_MUTATIONS))
@pytest.mark.parametrize("i,j", [(0, 0), (2, 1)])
def test_each_vector_mutation_gets_the_reference_error(change, i, j):
    obj = fixed_document()
    obj["entries"][i]["key"][j] = VECTOR_MUTATIONS[change](obj["entries"][i]["key"][j], 3)
    assert_parsers_agree(obj)


@pytest.mark.parametrize("change", sorted(CODE_MUTATIONS))
@pytest.mark.parametrize("i,j", [(0, 0), (2, 1)])
def test_each_code_mutation_gets_the_reference_error(change, i, j):
    obj = fixed_document(schema="2")
    obj["entries"][i]["key"][j] = CODE_MUTATIONS[change](obj["entries"][i]["key"][j], 9)
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
    obj = fixed_document(schema="2")
    obj["entries"][i] = ENTRY_MUTATIONS[change](obj["entries"][i], 4)
    assert_parsers_agree(obj)


def test_duplicate_key_gets_the_reference_error():
    obj = fixed_document()
    obj["entries"][2]["key"] = obj["entries"][0]["key"]
    assert_parsers_agree(obj)


def test_duplicate_key_of_a_schema_2_document_gets_the_reference_error():
    obj = fixed_document(schema="2")
    obj["entries"][2]["key"] = obj["entries"][0]["key"]
    assert_parsers_agree(obj)


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
    obj = fixed_document(ring, schema="2")
    obj["entries"][1]["value"] = value
    assert_parsers_agree(obj)


@given(cochains(), st.sampled_from(SCHEMAS))
@example((ICochain(GroupContext(3, 1), 0, MOD_P, {(): 2}), "normalized"), "1")
@example((ICochain(GroupContext(2, 2), 0, INTEGERS, {(): -7}), "icochain"), "2")
@example((ICochain(GroupContext(5, 1), 1, INTEGERS, {((1,),): -(2**70), ((2,),): -1}),
          "icochain"), "2")
@settings(max_examples=200, deadline=None)
def test_valid_documents_pass_the_column_checks(case, schema):
    # Z values of either sign and n = 0 keys among them: only an invalid
    # document reaches the per-entry loop
    def per_entry(*args):
        raise AssertionError("a valid document left the column checks")

    f, kind = case
    text = json.dumps(document(f, kind, schema))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_raise_first_entry_error", per_entry)
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
    # code 1 is decoded for entries[0]; true and 1.0 equal it
    for bad in ("true", "1.0"):
        text = json.dumps({
            "schema_version": "2", "p": 3, "r": 2, "n": 1, "kind": "icochain",
            "coeff_ring": "Fp", "entries": [{"key": [1], "value": 1},
                                            {"key": [99], "value": 1}],
        }).replace("[99]", f"[{bad}]")
        with pytest.raises(DocumentError,
                           match=r"entries\[1\]\.key\[0\]: slot codes must be integers"):
            parse_cochain_document(text)


# -- hostile schema-2 input -----------------------------------------------

def one_entry_document(p: int, r: int, key: list) -> str:
    return json.dumps({"schema_version": "2", "p": p, "r": r, "n": len(key),
                       "kind": "icochain", "coeff_ring": "Fp",
                       "entries": [{"key": key, "value": 1}]})


@pytest.mark.parametrize("command", [["invert"], ["invert", "--unchecked"],
                                     ["check-cocycle"], ["d"]])
def test_a_huge_r_is_refused_before_any_code_is_decoded(command, tmp_path, capsys):
    # decoding code 1 at r = 10^9 would build a 10^9-tuple, which a
    # schema-1 document would have to spell out in its text
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
    assert err == "error: entries[0].key[1]: slot codes must be integers in [1, 3^2)\n"


def test_the_first_bad_code_is_found_at_a_huge_r_without_p_to_the_r():
    # entries[1] sends the document to the per-entry loop, whose code check
    # stops at the bits of each code: p^r at r = 10^9 is never computed
    text = json.dumps({"schema_version": "2", "p": 3, "r": 10**9, "n": 2, "kind": "icochain",
                       "coeff_ring": "Fp", "entries": [{"key": [1, 0], "value": 1}, None]})
    start = time.perf_counter()
    with pytest.raises(DocumentError, match=r"^entries\[0\]\.key\[1\]: .*\[1, 3\^1000000000\)$"):
        parse_cochain_document(text)
    assert time.perf_counter() - start < 2.0
