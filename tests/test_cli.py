"""CLI commands, document validation, exit codes, and byte stability."""

import contextlib
import decimal
import functools
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icochains
from icochains import (
    AlgebraElem,
    GroupContext,
    bockstein_cocycle,
    count_terms_closed_form,
    exponent_cocycle,
    realize,
)
from icochains import cli as cli_module
from icochains.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NOT_COCYCLE,
    EXIT_OK,
    EXIT_USAGE,
    algebra_document,
    cochain_document,
    dumps_document,
    main,
    parse_cochain_document,
)
from icochains.group_ring import DocumentError
from conftest import algebra_terms

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_document_round_trip():
    ctx = GroupContext(3, 2)
    f = bockstein_cocycle(ctx, 2)
    text = dumps_document(cochain_document(f, "icochain"))
    parsed, kind = parse_cochain_document(text)
    assert kind == "icochain"
    assert parsed == f
    # stable bytes on re-emission
    assert dumps_document(cochain_document(parsed, kind)) == text


def test_document_validation_messages():
    base = {
        "schema_version": "1", "p": 3, "r": 1, "n": 1,
        "kind": "icochain", "coeff_ring": "Fp",
        "entries": [{"key": [[1]], "value": 1}],
    }
    def broken(**changes):
        doc = dict(base)
        doc.update(changes)
        return json.dumps(doc)

    with pytest.raises(DocumentError, match="schema_version"):
        parse_cochain_document(broken(schema_version="2"))  # retired
    with pytest.raises(DocumentError, match="prime"):
        parse_cochain_document(broken(p=4))
    with pytest.raises(DocumentError, match="kind"):
        parse_cochain_document(broken(kind="chain"))
    with pytest.raises(DocumentError, match="entries\\[0\\].key\\[0\\]"):
        parse_cochain_document(broken(entries=[{"key": [[0]], "value": 1}]))
    with pytest.raises(DocumentError, match="entries\\[0\\].value"):
        parse_cochain_document(broken(entries=[{"key": [[1]], "value": 0}]))
    with pytest.raises(DocumentError, match="\\[1, 3\\)"):
        parse_cochain_document(broken(entries=[{"key": [[1]], "value": 7}]))
    with pytest.raises(DocumentError, match="duplicate"):
        parse_cochain_document(broken(entries=[
            {"key": [[1]], "value": 1}, {"key": [[1]], "value": 2}]))
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_cochain_document("{nope")


def test_algebra_document_round_trip():
    text = (GOLDEN / "h1_p3r1.expected.json").read_text()
    assert algebra_terms(text) == {(2,): 1}
    e = AlgebraElem.monomial(GroupContext(3, 1), (2,))
    assert dumps_document(algebra_document(e)) == text


def test_invert_golden_files(capsys):
    for name, expected_terms in [
        ("h1_p3r1", {(2,): 1}),
        ("zero_p2r1", {}),
        ("z1_p2r1", {(2,): 1}),
    ]:
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, "invert", "--in", str(GOLDEN / f"{name}.json"))
            assert code == EXIT_OK, err
            outputs.append(out)
        assert outputs[0] == outputs[1], f"{name}: output not byte-stable"
        assert outputs[0] == (GOLDEN / f"{name}.expected.json").read_text()
        assert algebra_terms(outputs[0]) == expected_terms


def test_invert_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO((GOLDEN / "h1_p3r1.json").read_text()))
    code, out, err = run_cli(capsys, "invert", "--in", "-")
    assert code == EXIT_OK, err
    assert algebra_terms(out) == {(2,): 1}


def test_invert_override_flag(tmp_path, capsys):
    path = write_doc(tmp_path, "z.json", (GOLDEN / "z1_p2r1.json").read_text())
    code, out_n, _ = run_cli(capsys, "invert", "--in", path, "--normalized")
    code2, out_i, _ = run_cli(capsys, "invert", "--in", path, "--icochain")
    assert code == code2 == EXIT_OK
    assert out_n == out_i  # the correspondence is value-for-value


@pytest.mark.parametrize("kind", ["icochain", "normalized"])
def test_invert_kind_flags_keep_the_output(tmp_path, capsys, kind):
    # invert sums only the stored values, so neither the document's kind nor
    # a flag changes its output, on a realized cocycle or on a 2-entry
    # document (--unchecked)
    code, tau_out, _ = run_cli(capsys, "tau", "--p", "3", "--r", "2", "--sig", "2,1")
    assert code == EXIT_OK
    sparse = json.dumps({"schema_version": "1", "p": 3, "r": 2, "n": 3, "kind": "icochain",
                         "coeff_ring": "Fp", "entries": [
                             {"key": [[1, 0], [2, 0], [1, 0]], "value": 2},
                             {"key": [[0, 1], [1, 1], [1, 0]], "value": 1}]})
    for text, expected in [(tau_out, {(2, 1): 1}), (sparse, {(3, 0): 2})]:
        doc = json.loads(text)
        doc["kind"] = kind
        path = write_doc(tmp_path, "f.json", json.dumps(doc))
        outputs = set()
        for flags in [(), ("--normalized",), ("--icochain",)]:
            code, out, _ = run_cli(capsys, "invert", "--unchecked", "--in", path, *flags)
            assert code == EXIT_OK
            outputs.add(out)
        assert len(outputs) == 1
        assert algebra_terms(outputs.pop()) == expected


def test_tau_invert_round_trip(capsys):
    code, tau_out, _ = run_cli(capsys, "tau", "--p", "3", "--r", "1", "--sig", "2")
    assert code == EXIT_OK
    parsed, kind = parse_cochain_document(tau_out)
    assert kind == "icochain"
    assert parsed == bockstein_cocycle(GroupContext(3, 1), 1)


def test_tau_invert_pipeline(tmp_path, capsys):
    for p, r, sig, expected in [
        (3, 1, "2", {(2,): 1}),
        (2, 2, "1,1", {(1, 1): 1}),
        (5, 1, "3", {(3,): 1}),
    ]:
        code, tau_out, _ = run_cli(capsys, "tau", "--p", str(p), "--r", str(r), "--sig", sig)
        assert code == EXIT_OK
        path = write_doc(tmp_path, "tau.json", tau_out)
        code, inv_out, err = run_cli(capsys, "invert", "--in", path)
        assert code == EXIT_OK, err
        assert algebra_terms(inv_out) == expected


def test_tau_invert_all_small_signatures(tmp_path, capsys):
    # every signature of degree <= 4 survives the full CLI round trip
    from icochains import compositions

    for p, r in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        for n in range(5):
            for sig in compositions(n, r):
                sig_arg = ",".join(map(str, sig))
                code, tau_out, _ = run_cli(capsys, "tau", "--p", str(p),
                                           "--r", str(r), "--sig", sig_arg)
                assert code == EXIT_OK
                path = write_doc(tmp_path, "tau.json", tau_out)
                code, inv_out, err = run_cli(capsys, "invert", "--in", path)
                assert code == EXIT_OK, err
                assert algebra_terms(inv_out) == {sig: 1}, (p, r, sig)


def test_cup_command(tmp_path, capsys):
    ctx = GroupContext(2, 2)
    f1 = exponent_cocycle(ctx, 1)
    path1 = write_doc(tmp_path, "f1.json",
                      dumps_document(cochain_document(f1, "icochain")))
    code, out, _ = run_cli(capsys, "cup", "--in", path1, "--in", path1)
    assert code == EXIT_OK
    parsed, _ = parse_cochain_document(out)
    assert parsed == f1.cup(f1)
    code, _, err = run_cli(capsys, "cup", "--in", path1)
    assert code == EXIT_INVALID


def test_cup_of_three_documents_is_the_nested_cup(tmp_path, capsys):
    ctx = GroupContext(3, 2)
    factors = [exponent_cocycle(ctx, 1), bockstein_cocycle(ctx, 2), exponent_cocycle(ctx, 2)]
    paths = [write_doc(tmp_path, f"f{j}.json", dumps_document(cochain_document(f, "icochain")))
             for j, f in enumerate(factors)]
    code, out, _ = run_cli(capsys, "cup", *(arg for path in paths for arg in ("--in", path)))
    assert code == EXIT_OK
    parsed, _ = parse_cochain_document(out)
    nested = factors[0].cup(factors[1]).cup(factors[2])
    assert parsed == nested and not nested.is_zero()
    assert out == dumps_document(cochain_document(nested, "icochain"))


def test_cup_refuses_the_whole_product_of_supports(tmp_path, capsys):
    # each factor has p - 1 = 4098 entries; two of them already exceed the
    # budget, and the refusal reports the product of all three supports
    ctx = GroupContext(4099, 1)
    path = write_doc(tmp_path, "f.json",
                     dumps_document(cochain_document(exponent_cocycle(ctx, 1), "icochain")))
    code, out, err = run_cli(capsys, "cup", "--in", path, "--in", path, "--in", path)
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == f"error: the computation needs {4098**3} entries, over the budget of 16777216\n"


def test_d_command_and_check_cocycle(tmp_path, capsys):
    doc = {
        "schema_version": "1", "p": 3, "r": 1, "n": 1,
        "kind": "icochain", "coeff_ring": "Fp",
        "entries": [{"key": [[1]], "value": 1}, {"key": [[2]], "value": 1}],
    }
    path = write_doc(tmp_path, "f.json", json.dumps(doc))
    code, out, _ = run_cli(capsys, "check-cocycle", "--in", path)
    assert code == EXIT_NOT_COCYCLE
    assert out.strip() == "false"
    code, out, _ = run_cli(capsys, "d", "--in", path)
    assert code == EXIT_OK
    d_doc, kind = parse_cochain_document(out)
    assert kind == "icochain" and d_doc.degree == 2 and not d_doc.is_zero()
    # the coboundary is itself a cocycle
    path2 = write_doc(tmp_path, "df.json", out)
    code, out, _ = run_cli(capsys, "check-cocycle", "--in", path2)
    assert code == EXIT_OK
    assert out.strip() == "true"


def test_invert_rejects_non_cocycle(tmp_path, capsys):
    doc = {
        "schema_version": "1", "p": 3, "r": 1, "n": 1,
        "kind": "icochain", "coeff_ring": "Fp",
        "entries": [{"key": [[1]], "value": 1}, {"key": [[2]], "value": 1}],
    }
    path = write_doc(tmp_path, "f.json", json.dumps(doc))
    code, _, err = run_cli(capsys, "invert", "--in", path)
    assert code == EXIT_NOT_COCYCLE
    assert "not a cocycle" in err
    code, out, _ = run_cli(capsys, "invert", "--in", path, "--unchecked")
    assert code == EXIT_OK
    assert algebra_terms(out) == {(1,): 1}


@pytest.mark.parametrize("p,r,n", [(1000003, 1, 1), (1000003, 2, 1), (100003, 1, 2)])
def test_invert_empty_document_at_large_p(p, r, n, tmp_path, capsys):
    # degree 1 builds no (s-1)^(p-1) factor; degree 2 builds it in O(p)
    doc = {"schema_version": "1", "p": p, "r": r, "n": n,
           "kind": "icochain", "coeff_ring": "Fp", "entries": []}
    path = write_doc(tmp_path, "empty.json", json.dumps(doc))
    code, out, _ = run_cli(capsys, "invert", "--unchecked", "--in", path)
    assert code == EXIT_OK
    result = json.loads(out)
    assert (result["p"], result["r"], result["entries"]) == (p, r, [])


@pytest.mark.parametrize("p,code", [(10**18 + 3, EXIT_OK),
                                    (1287836182261 * 2575672364521, EXIT_INVALID)])
def test_invert_document_with_huge_p_exits_cleanly(p, code, tmp_path):
    # primality is decided at once below the Miller-Rabin bound and refused
    # above it; the (s-1)^(p-1) factor of degrees >= 2 is read in closed form
    for n in (1, 2, 3, 4):
        doc = {"schema_version": "1", "p": p, "r": 1, "n": n,
               "kind": "icochain", "coeff_ring": "Fp", "entries": []}
        path = write_doc(tmp_path, f"huge{n}.json", json.dumps(doc))
        for flags in ([], ["--unchecked"]):
            result = subprocess.run(
                [sys.executable, "-m", "icochains.cli", "invert", *flags, "--in", path],
                capture_output=True, text=True, timeout=10)
            assert result.returncode == code, (n, flags, result.stderr)
            assert "Traceback" not in result.stderr


def test_sparse_document_at_huge_p_is_not_a_cocycle(tmp_path):
    # 3nE <= p - 1: decided without the kernel's O(p) broadcasts
    p = 10**18 + 3
    for n in (1, 2):
        doc = {"schema_version": "1", "p": p, "r": 1, "n": n,
               "kind": "icochain", "coeff_ring": "Fp",
               "entries": [{"key": [[5]] * n, "value": 1}]}
        path = write_doc(tmp_path, f"one{n}.json", json.dumps(doc))
        for argv in (["check-cocycle", "--in", path], ["invert", "--in", path]):
            result = subprocess.run([sys.executable, "-m", "icochains.cli", *argv],
                                    capture_output=True, text=True, timeout=10)
            assert result.returncode == EXIT_NOT_COCYCLE, (n, argv, result.stderr)
            assert "Traceback" not in result.stderr


@pytest.mark.parametrize("kind,n,code", [("icochain", 1, EXIT_BUDGET),
                                         ("normalized", 1, EXIT_BUDGET),
                                         ("icochain", 0, EXIT_OK)])
def test_d_at_huge_p_refuses_before_allocating(kind, n, code, tmp_path):
    # the coboundary of one entry has about 3nN terms; degree 0 has none
    doc = {"schema_version": "1", "p": 10**18 + 3, "r": 1, "n": n, "kind": kind,
           "coeff_ring": "Fp", "entries": [{"key": [[5]] * n, "value": 1}]}
    path = write_doc(tmp_path, "one.json", json.dumps(doc))
    result = subprocess.run([sys.executable, "-m", "icochains.cli", "d", "--in", path],
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if code == EXIT_BUDGET:
        assert str(3 * (10**18 + 2)) in result.stderr and result.stdout == ""


@pytest.mark.parametrize("fields", [
    {"schema_version": "3", "n": 2, "slots": [], "values": []},
    {"schema_version": "1", "n": 2, "entries": []},
    {"schema_version": "3", "n": 0, "slots": [], "values": [1]},
], ids=["empty", "empty-schema-1", "degree-0"])
def test_d_with_nothing_to_contract_at_a_huge_r(fields, tmp_path, capsys):
    # an empty or a degree-0 cochain has the zero coboundary, returned
    # before the budget check, which would compute p^r = 3^(10^9)
    doc = {"p": 3, "r": 10**9, "kind": "icochain", "coeff_ring": "Fp", **fields}
    path = write_doc(tmp_path, "wide.json", json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "d", "--in", path)
    assert time.perf_counter() - start < 2
    assert (code, err) == (EXIT_OK, "")
    result = json.loads(out)
    assert (result["n"], result["r"]) == (fields["n"] + 1, 10**9)
    assert result["slots"] == result["values"] == []


def test_d_refuses_both_kinds_by_one_rule(tmp_path, capsys):
    # E 3n N = 280 * 6 * 10006 = 16 810 080 kernel terms, just over 2^24; the
    # bar form's E (n+2) N = 11 206 720 would have passed
    p, n = 10007, 2
    entries = [{"key": [[u], [1]], "value": 1} for u in range(1, 281)]
    outcomes = set()
    for kind in ("icochain", "normalized"):
        doc = {"schema_version": "1", "p": p, "r": 1, "n": n, "kind": kind,
               "coeff_ring": "Fp", "entries": entries}
        path = write_doc(tmp_path, f"{kind}.json", json.dumps(doc))
        outcomes.add(run_cli(capsys, "d", "--in", path))
    assert outcomes == {(EXIT_BUDGET, "", "error: the computation needs 16810080 entries, "
                                          "over the budget of 16777216\n")}


def test_check_cocycle_refuses_an_over_budget_check(tmp_path):
    # 1 400 degree-1 entries at p = 4099 pass the sparse lemma (3 * 1400 > 4098);
    # the comparisons and the summed partition cost 1400 + 4098 + 2 * 1400 + 4098: decided
    doc = {"schema_version": "1", "p": 4099, "r": 1, "n": 1, "kind": "icochain",
           "coeff_ring": "Fp", "entries": [{"key": [[u]], "value": 1} for u in range(1, 1401)]}
    path = write_doc(tmp_path, "wide.json", json.dumps(doc))
    for argv, out in ((["check-cocycle", "--in", path], "false\n"), (["invert", "--in", path], "")):
        result = subprocess.run([sys.executable, "-m", "icochains.cli", *argv],
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == EXIT_NOT_COCYCLE, (argv, result.stderr)
        assert "Traceback" not in result.stderr and result.stdout == out
    # 2 100 degree-2 keys (s, s^u) all lie in the partition at s, so the running
    # total reaches 4098 + 2100 for the comparisons and 2 * 2100 + 2100 (4097 + 4098)
    # for the expansion: refused
    big_n, entries = 4098, 2100
    required = big_n + entries + 2 * entries + entries * ((big_n - 1) + big_n)
    assert required == 17219898
    doc["n"] = 2
    doc["entries"] = [{"key": [[1], [u]], "value": 1} for u in range(1, 2101)]
    path = write_doc(tmp_path, "wide2.json", json.dumps(doc))
    for argv in (["check-cocycle", "--in", path], ["invert", "--in", path]):
        result = subprocess.run([sys.executable, "-m", "icochains.cli", *argv],
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == EXIT_BUDGET, (argv, result.stderr)
        assert result.stderr == (f"error: the computation needs {required} entries, "
                                 "over the budget of 16777216\n")
        assert result.stdout == ""


def test_tau_refuses_an_over_budget_cup_product():
    # three degree-2 factors at N = 342: a product of about 1.3e14 keys
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "tau", "--p", "7", "--r", "3", "--sig", "2,2,2"],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_BUDGET, result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""
    # no flag of tau can raise the budget, so the message offers none
    assert "max_entries" not in result.stderr


def test_tau_refuses_before_building_a_factor():
    # one degree-2 factor at p = 101, r = 2 has 101*100/2 * 101^2 entries
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "tau", "--p", "101", "--r", "2", "--sig", "2,0"],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_BUDGET, result.stderr
    assert "51515050" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize("sig,exponent", [("100000,0", 71568), ("10000000,0", 7156818)])
def test_tau_refuses_a_huge_signature_by_its_logarithm(sig, exponent):
    # 27^(m/2) entries: the exact product would have millions of digits
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "tau", "--p", "3", "--r", "2", "--sig", sig],
        capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout) == (EXIT_BUDGET, "")
    assert result.stderr == (f"error: the computation needs more than 10^{exponent} entries, "
                             "over the budget of 16777216\n")


@pytest.mark.parametrize("sig", ["99999999999999999999999", "10000000000"])
def test_tau_refuses_a_signature_of_degree_over_the_budget(sig):
    # at p = 2, r = 1 every power has one entry, so only the degree, the
    # slots of its one key, can be over the budget
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "tau", "--p", "2", "--r", "1", "--sig", sig],
        capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout) == (EXIT_BUDGET, "")
    assert result.stderr == (f"error: the computation needs {sig} entries, "
                             "over the budget of 16777216\n")


@pytest.mark.parametrize("sig,copies", [("16777216", 385875968), ("884000", 16796000)])
def test_tau_refuses_a_signature_whose_cup_tree_is_over_the_budget(sig, copies):
    # a degree inside the budget, but cup_many's merge tree copies each of
    # its slots ceil(log2 m) times for m = degree / 2 generator factors
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "tau", "--p", "2", "--r", "1", "--sig", sig],
        capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout) == (EXIT_BUDGET, "")
    assert result.stderr == (f"error: the computation needs {copies} entries, "
                             "over the budget of 16777216\n")


def test_tau_refuses_a_signature_whose_key_slots_are_over_the_budget(capsys):
    # at p = 3, r = 1 the degree-2 generator has 3 entries, so --sig 30 has
    # 3^15 entries, under the budget, of 30 slots each; the cocycle and its
    # document would hold 430 467 210 key slots
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "tau", "--p", "3", "--r", "1", "--sig", "30")
    assert time.perf_counter() - start < 2  # refused before any factor is built
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == "error: the computation needs 430467210 entries, over the budget of 16777216\n"


def test_invert_rejects_integer_coefficients(tmp_path, capsys):
    ctx = GroupContext(2, 1)
    doc = dumps_document(cochain_document(bockstein_cocycle(ctx, 1), "normalized"))
    doc = doc.replace('"Fp"', '"Z"')
    path = write_doc(tmp_path, "z.json", doc)
    code, _, err = run_cli(capsys, "invert", "--in", path)
    assert code == EXIT_INVALID
    assert "mod-p" in err


def test_dims_output(capsys):
    code, out, _ = run_cli(capsys, "dims", "--p", "3", "--r", "2", "--max-n", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "dim_C", "dim_Z", "dim_B", "dim_H", "expected_H"]
    assert [line.split()[4] for line in lines[1:]] == ["1", "2", "3", "4"]
    assert [line.split()[5] for line in lines[1:]] == ["1", "2", "3", "4"]


def test_dims_eliminates_each_degree_once(capsys):
    # cohomology_report(n) reads the block ranks of d_n and d_(n-1); the
    # cache hands degree n's ranks on to degree n + 1, so a table of
    # degrees 0..max_n eliminates max_n + 1 coboundaries and reuses max_n
    from icochains import graded

    graded._block_ranks.cache_clear()
    code, out, _ = run_cli(capsys, "dims", "--p", "2", "--r", "2", "--max-n", "6")
    assert code == EXIT_OK and len(out.splitlines()) == 8
    info = graded._block_ranks.cache_info()
    assert (info.misses, info.hits) == (7, 6)


def test_dims_budget_exit(capsys):
    # N = 8: degrees 0..5 build 1 956 528 key slots, degree 6 takes the
    # table past the 2^24 budget before its first degree is ranked
    code, out, err = run_cli(capsys, "dims", "--p", "3", "--r", "2", "--max-n", "6")
    assert code == EXIT_BUDGET
    assert _table_slots(8, 5) <= 2**24 < _table_slots(8, 6) == 18391352
    assert err == "error: the computation needs 18391352 entries, over the budget of 16777216\n"
    assert out == ""


def test_dims_budget_is_not_an_option():
    # the entry budget is a constant: no flag raises or lowers it
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "dims", "--p", "3", "--r", "1",
         "--max-n", "2", "--budget", "1000"],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_USAGE
    assert result.stderr.startswith("usage: ")
    assert "unrecognized arguments: --budget 1000" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_dims_past_the_dense_budget(capsys):
    # the dense d_3 at (3, 2) alone would have 8^7 > 2^24 entries
    code, out, _ = run_cli(capsys, "dims", "--p", "3", "--r", "2", "--max-n", "4")
    assert code == EXIT_OK
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(row[4] == row[5] for row in rows)


def _table_slots(big_n, max_n):
    # degree n builds the keys of every length up to n + 1, a slot at a time
    return sum(i * big_n**i for n in range(max_n + 1) for i in range(1, n + 2))


def _line_table_slots(max_n):
    # _table_slots(1, max_n), the sum of (n + 1)(n + 2) / 2 over n <= max_n
    return (max_n + 1) * (max_n + 2) * (max_n + 3) // 6


def test_dims_refuses_before_enumerating():
    # N = 342: the key slots of degrees 0..1 pass the 2^24 default
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "dims", "--p", "7", "--r", "3", "--max-n", "3"],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_BUDGET
    assert str(_table_slots(342, 2)) in result.stderr
    assert result.stdout == ""


def test_dims_refuses_a_long_table_before_its_first_degree():
    # N = 1: one key per degree, but building degree n's keys a slot at a
    # time costs (n + 1)(n + 2) / 2 slots, so the table's cost grows as the
    # cube of max-n (1 600 degrees take seconds, 4 095 over a minute)
    assert all(_line_table_slots(m) == _table_slots(1, m) for m in range(20))
    first = next(m for m in itertools.count() if _line_table_slots(m) > 2**24)
    assert first == 464
    for max_n in (first, 4095, 10000):
        result = subprocess.run(
            [sys.executable, "-m", "icochains.cli", "dims", "--p", "2", "--r", "1",
             "--max-n", str(max_n)],
            capture_output=True, text=True, timeout=10)
        assert result.returncode == EXIT_BUDGET, result.stderr
        assert f"needs {_line_table_slots(first)} entries" in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("p,r,exponent", [(3, 10**9, 477121254),
                                          (10**18 + 3, 100000, 1799999)])
def test_dims_refuses_a_huge_group_by_its_logarithm(p, r, exponent, capsys):
    # degree 0 alone needs N = p^r - 1 slots; computing p^r would take
    # about a second at p = 10^18 + 3, r = 10^5, and far longer at r = 10^9
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dims", "--p", str(p), "--r", str(r), "--max-n", "0")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == (f"error: the computation needs more than 10^{exponent} entries, "
                   f"over the budget of {2**24}\n")


def test_dims_on_a_line_up_to_the_budget():
    # N = 1: the longest table the default budget accepts, every H^n a line
    last = 463
    assert _line_table_slots(last) <= 2**24 < _line_table_slots(last + 1)
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "dims", "--p", "2", "--r", "1",
         "--max-n", str(last)],
        capture_output=True, text=True, timeout=30)
    assert result.returncode == EXIT_OK, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert len(rows) == last + 1
    assert [row[0] for row in rows] == [str(n) for n in range(last + 1)]
    assert all(row[1:] == ["1", "1", "0", "1", "1"] for row in rows)


@pytest.mark.parametrize("argv,message", [
    (["tau", "--p", "4", "--r", "2", "--sig", "1,1"], "p must be prime, got 4"),
    (["dims", "--p", "3", "--r", "0", "--max-n", "1"], "r must be >= 1, got 0"),
    (["count-terms", "--p", "9", "--r", "1", "--n", "2"], "p must be prime, got 9"),
])
def test_bad_context_flags_are_invalid_input(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert err == f"error: {message}\n" and out == ""


def test_internal_value_errors_propagate(monkeypatch):
    # only the CLI's own boundary errors become exit codes
    def broken(_e):
        raise ValueError("internal")

    monkeypatch.setattr(cli_module, "realize", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["tau", "--p", "3", "--r", "1", "--sig", "1"])


def test_count_terms_command(capsys):
    code, out, _ = run_cli(capsys, "count-terms", "--p", "2", "--r", "2", "--n", "3")
    assert code == EXIT_OK
    assert out.strip() == "8"


def test_count_terms_of_any_length():
    def count_terms_text(*argv):
        result = subprocess.run([sys.executable, "-m", "icochains.cli", "count-terms", *argv],
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == EXIT_OK, (argv, result.stderr)
        return result.stdout.strip()

    # r = n = 30 enumerated 30-part compositions
    count = int(count_terms_text("--p", "3", "--r", "30", "--n", "30"))
    assert abs(count - count_terms_closed_form(GroupContext(3, 30), 30)) <= 1e-9 * count
    # 2^50000 has 15 052 digits, past the 4 300 that int-to-str allows
    with decimal.localcontext() as context:
        context.prec = 20000
        assert count_terms_text("--p", "3", "--r", "1", "--n", "100000") == str(
            decimal.Decimal(2) ** 50000)


@pytest.mark.parametrize("argv,needs", [
    (["--p", "3", "--r", "5000", "--n", "60"], str(4999 * 60 * 60)),  # DP steps
    # the count is 2^(5 10^8), of 150 514 998 digits
    (["--p", "3", "--r", "1", "--n", "1000000000"], "more than 10^150514997"),
])
def test_count_terms_refuses_before_computing(argv, needs):
    result = subprocess.run([sys.executable, "-m", "icochains.cli", "count-terms", *argv],
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_BUDGET, result.stderr
    assert f"needs {needs} entries" in result.stderr and result.stdout == ""


def test_count_terms_refusal_reports_entries_not_digits(capsys):
    # the count is at least r^n = 2^(10^8) > 10^30102999; its bound
    # r^n (p-1)^(n//2) has 45 154 500 digits, which is not a number of entries
    code, out, err = run_cli(capsys, "count-terms", "--p", "3", "--r", "2", "--n", "100000000")
    assert code == EXIT_BUDGET and out == ""
    assert err == ("error: the computation needs more than 10^30102999 entries, "
                   "over the budget of 16777216\n")


@pytest.mark.parametrize("p,r,kind", [(3, 8, "icochain"), (3, 8, "normalized"),
                                      (2, 8, "icochain")])
def test_invert_empty_degree_8_document(p, r, kind, tmp_path):
    # the formula would take count_terms evaluations (86 265 216 at p = 3)
    doc = {"schema_version": "1", "p": p, "r": r, "n": 8, "kind": kind,
           "coeff_ring": "Fp", "entries": []}
    path = write_doc(tmp_path, "empty8.json", json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "invert", "--unchecked", "--in", path],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_OK, result.stderr
    assert json.loads(result.stdout)["entries"] == []


def test_malformed_input_exit(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", "{broken")
    code, _, err = run_cli(capsys, "invert", "--in", path)
    assert code == EXIT_INVALID
    assert "invalid JSON" in err
    code, _, err = run_cli(capsys, "invert", "--in", str(tmp_path / "missing.json"))
    assert code == EXIT_INVALID


def test_deeply_nested_json_is_invalid_json(tmp_path, capsys):
    path = write_doc(tmp_path, "deep.json", "[" * 100_000)
    code, out, err = run_cli(capsys, "invert", "--in", path)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
    with pytest.raises(DocumentError, match="^invalid JSON: maximum recursion depth"):
        parse_cochain_document('{"entries": ' + "{\"a\": " * 100_000)


def test_undecodable_input_exit(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": "\xff"}')
    code, out, err = run_cli(capsys, "check-cocycle", "--in", str(path))
    assert code == EXIT_INVALID and out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_overlong_integer_is_invalid_json(tmp_path, capsys):
    # json.loads raises a plain ValueError past the 4 300-digit int limit
    doc = ('{"schema_version": "1", "p": 3, "r": 1, "n": 1, "kind": "icochain", '
           '"coeff_ring": "Z", "entries": [{"key": [[1]], "value": 1' + "0" * 5000 + '}]}')
    code, out, err = run_cli(capsys, "check-cocycle", "--in", write_doc(tmp_path, "big.json", doc))
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: invalid JSON: Exceeds the limit")


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as info:
        main(["invert", "--bogus"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == EXIT_USAGE
    assert main([]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["dims", "--p", "3", "--r", "1", "--max-n", "-1"],
    ["count-terms", "--p", "3", "--r", "1", "--n", "-1"],
])
def test_negative_degree_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err


# Command lines the table parse must leave to argparse: help, usage errors,
# and the forms argparse accepts that the table does not read (an
# abbreviation, --opt=value, a repeated option, --, a value starting with -).
DECLINED = [
    ["--help"], ["-h"], ["dims", "--help"], ["invert", "-h", "--in", "x"],
    ["no-such-command"], ["dim", "--p", "3", "--r", "1", "--max-n", "1"],
    ["invert", "--unch", "--in", "x"], ["tau", "--p=3", "--r", "1", "--sig", "1"],
    ["tau", "--p", "3", "--p", "3", "--r", "1", "--sig", "1"],
    ["invert", "--unchecked", "--unchecked", "--in", "x"],
    ["invert", "--normalized", "--icochain", "--in", "x"],
    ["tau", "--p", "3", "--r", "1"], ["invert"], ["selftest", "extra"],
    ["tau", "--p", "x", "--r", "1", "--sig", "1"], ["dims", "--p", "3", "--r", "1", "--max-n"],
    ["dims", "--p", "3", "--r", "1", "--max-n", "-1"],
    ["dims", "--p", "3", "--r", "1", "--max-n", " -1"],
    ["count-terms", "--p", "3", "--r", "1", "--n", "1.5"], ["invert", "--in", "--", "x"],
    ["invert", "--", "--in", "x"], ["tau", "--p", "-3", "--r", "1", "--sig", "1"],
    ["invert", "--in", "-x"], [],
]


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_the_table_parse_declines_what_it_does_not_read_exactly(argv):
    assert cli_module._parse(argv) is None


@functools.lru_cache(maxsize=None)
def argparse_parser():
    return cli_module.build_parser()


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(argparse_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("argv", [
    ["invert", "--in", "-"], ["invert", "--unchecked", "--icochain", "--in", "a b"],
    ["tau", "--sig", "2,1", "--r", "2", "--p", "3"], ["cup", "--in", "a", "--in", "-"],
    ["dims", "--p", "2", "--r", "4", "--max-n", "0"],
    ["count-terms", "--p", " 3", "--r", "+2", "--n", "1_0"],
    ["d", "--in", ""], ["check-cocycle", "--in", "x"], ["selftest"],
], ids=" ".join)
def test_the_table_parse_reads_well_formed_command_lines_as_argparse_does(argv):
    assert vars(cli_module._parse(argv)) == argparse_vars(argv)


def _flag_values(kind):
    """A strategy of well-formed values of a flag of this kind."""
    if kind in ("int", "degree"):
        return st.integers(0, 10**6).map(str) | st.sampled_from([" 7", "+2", "1_0", "\u0663"])
    return st.just("-") | st.text(max_size=6).filter(lambda text: not text.startswith("-"))


# values that replace a well-formed one; argparse takes "-1" as a value
CHANGED_VALUES = {"negative": ["-1", "-0", "-7", " -1"], "dash": ["-", "-x", "-h", "--p", "--"],
                  "not an int": ["x", "1.5", "", "0x10", "1e3"]}


@st.composite
def command_lines(draw):
    """(argv, well-formed): a command line drawn from ``cli.COMMANDS``,
    and perhaps one change that argparse may treat differently."""
    name = draw(st.sampled_from(sorted(cli_module.COMMANDS)))
    uses, one_of = [], False
    for option, kind, _ in cli_module.COMMANDS[name][2]:
        if kind in cli_module.SWITCHES:
            if draw(st.booleans()) and not (kind == "one-of" and one_of):
                uses.append([option])
                one_of |= kind == "one-of"
        else:
            for _ in range(draw(st.integers(1, 3)) if kind == "list" else 1):
                uses.append([option, draw(_flag_values(kind))])
    uses = draw(st.permutations(uses))
    change = draw(st.sampled_from([None, "abbreviate", "=", "repeat", "drop value", "drop flag",
                                   "insert", "negative", "dash", "not an int"]))
    at = draw(st.integers(0, len(uses)))
    if change == "insert":
        uses.insert(at, [draw(st.sampled_from(["-h", "--help", "--", "-", "x", "--bogus"]))])
    elif uses and at < len(uses):
        use = uses[at]
        if change == "abbreviate":
            use[0] = use[0][:draw(st.integers(2, len(use[0]) - 1))]
        elif change == "=" and len(use) == 2:
            uses[at] = [f"{use[0]}={use[1]}"]
        elif change == "repeat":
            uses.insert(at, list(use))
        elif change == "drop value" and len(use) == 2:
            use.pop()
        elif change == "drop flag":
            uses.pop(at)
        elif change in CHANGED_VALUES and len(use) == 2:
            use[1] = draw(st.sampled_from(CHANGED_VALUES[change]))
        else:
            change = "no-op"
    else:
        change = "no-op"
    return [name] + [token for use in uses for token in use], change in (None, "no-op")


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_the_table_parse_agrees_with_argparse(drawn):
    argv, well_formed = drawn
    table = cli_module._parse(argv)
    if well_formed:
        assert table is not None, argv
    if table is not None:
        assert vars(table) == argparse_vars(argv), argv


def test_the_cocycle_check_loads_before_the_read(tmp_path):
    """check-cocycle and the checked invert compile the check before they
    read, as invert compiles the inverse map, so in a pipe it compiles
    while the writer computes; invert --unchecked does not load it."""
    path = write_doc(tmp_path, "f.json", dumps_document(cochain_document(
        realize(AlgebraElem.monomial(GroupContext(3, 1), (1,))), "icochain")))
    probe = """
import sys
import icochains.cli as cli
read = cli._read_input
def spy(path):
    print(*(f"icochains.{m}" in sys.modules for m in ("cocycle", "inverse")))
    return read(path)
cli._read_input = spy
cli.main(sys.argv[1:])
"""
    for argv, loaded in ((["check-cocycle"], "True False"), (["invert"], "True True"),
                         (["invert", "--unchecked"], "False True")):
        result = subprocess.run([sys.executable, "-c", probe, *argv, "--in", path],
                                capture_output=True, text=True, env=process_env(), timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == loaded, argv


def test_cli_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "count-terms",
         "--p", "3", "--r", "1", "--n", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "2"
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "dims", "--bad-flag"],
        capture_output=True, text=True)
    assert result.returncode == EXIT_USAGE


# Imports the package and the CLI in a fresh interpreter, checking that
# neither loads a submodule it does not need, then runs cli.main and checks
# whether numpy was imported against the first argument, that none of the
# comma-separated modules in the second was, that the icochains modules
# loaded are exactly those in the third, and that main returned the fourth.
_IMPORT_PROBE = """
import sys
expect_numpy, absent, modules, code, argv = (sys.argv[1] == "numpy", sys.argv[2].split(","),
                                             sys.argv[3], int(sys.argv[4]), sys.argv[5:])
before = set(sys.modules)
import icochains
assert [m for m in sys.modules if m.startswith("icochains.")] == [], "import icochains"
import icochains.cli as cli
loaded = set(sys.modules) - before
assert [m for m in loaded if m.startswith("icochains.")] == ["icochains.cli"], loaded
assert not loaded & {"json", "argparse"}, loaded
assert cli.main(argv) == code, argv
assert ("numpy" in sys.modules) == expect_numpy, argv
assert [m for m in absent if m in set(sys.modules) - before] == [], argv
ours = ",".join(sorted(m[len("icochains."):] for m in sys.modules if m.startswith("icochains.")))
assert ours == modules, (argv, ours)
"""

# The icochains modules each command loads: tau compiles no inverse map,
# invert no generator cocycles, dims no document, cochain or algebra
# code, and only the commands that decide a cocycle (checked invert and
# check-cocycle) the cocycle check.
TAU_MODULES = "algebra,cli,cochain,documents,generators,group_ring"
UNCHECKED_INVERT_MODULES = "algebra,cli,cochain,documents,group_ring,inverse"
CHECKED_INVERT_MODULES = "algebra,cli,cochain,cocycle,documents,group_ring,inverse"
DOCUMENT_MODULES = "cli,cochain,documents,group_ring"
DIMS_MODULES = "cli,graded,group_ring"


def test_numpy_is_imported_only_by_kernel_commands(tmp_path):
    def doc(name, f):
        return write_doc(tmp_path, name, dumps_document(cochain_document(f, "icochain")))

    ctx2, ctx3 = GroupContext(2, 2), GroupContext(3, 2)
    p2 = doc("p2.json", realize(AlgebraElem.monomial(ctx2, (1, 1))))
    p3 = doc("p3.json", realize(AlgebraElem.monomial(ctx3, (1, 1))))
    p3b = doc("b3.json", exponent_cocycle(ctx3, 1))
    p3b_normalized = write_doc(tmp_path, "b3n.json", dumps_document(
        cochain_document(exponent_cocycle(ctx3, 1), "normalized")))
    # 280 entries of degree 2 at p = 10007: 16 810 080 kernel terms, refused
    wide = write_doc(tmp_path, "wide.json", json.dumps({
        "schema_version": "1", "p": 10007, "r": 1, "n": 2, "kind": "icochain",
        "coeff_ring": "Fp", "entries": [{"key": [[u], [1]], "value": 1} for u in range(1, 281)]}))
    without = [  # argv, other modules that must not load, the icochains modules loaded
        (["tau", "--p", "3", "--r", "2", "--sig", "2,1"], "argparse", TAU_MODULES),
        (["invert", "--unchecked", "--in", p2], "argparse", UNCHECKED_INVERT_MODULES),
        (["invert", "--unchecked", "--in", p3], "argparse", UNCHECKED_INVERT_MODULES),
        (["invert", "--unchecked", "--normalized", "--in", p3], "argparse",
         UNCHECKED_INVERT_MODULES),
        (["invert", "--in", p3], "argparse", CHECKED_INVERT_MODULES),
        (["invert", "--normalized", "--in", p3], "argparse", CHECKED_INVERT_MODULES),
        (["check-cocycle", "--in", p3], "argparse", "cli,cochain,cocycle,documents,group_ring"),
        (["cup", "--in", p3, "--in", p3b], "argparse", DOCUMENT_MODULES),
        (["count-terms", "--p", "3", "--r", "2", "--n", "4"], "json,argparse",
         "algebra,cli,cochain,group_ring,inverse"),
        (["dims", "--p", "2", "--r", "1", "--max-n", "1"], "json,argparse", DIMS_MODULES),
        (["dims", "--p", "3", "--r", "2", "--max-n", "3"], "json,argparse", DIMS_MODULES),
        (["d", "--in", wide], "argparse", DOCUMENT_MODULES + ",kernel", EXIT_BUDGET),
    ]
    with_numpy = [  # d runs the coboundary kernel on either kind
        (["d", "--in", p3b], "argparse", DOCUMENT_MODULES + ",kernel"),
        (["d", "--in", p3b_normalized], "argparse", DOCUMENT_MODULES + ",kernel"),
    ]
    for expect, runs in (("no-numpy", without), ("numpy", with_numpy)):
        for argv, absent, modules, *code in runs:  # the exit code is 0 unless given
            code = str(code[0] if code else EXIT_OK)
            result = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, expect, absent, modules, code, *argv],
                capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, (expect, argv, result.stderr)


# The cli names a tracer replaces to time each layer of a command.
TRACED_NAMES = ("realize", "invert", "parse_cochain_document",
                "cochain_document", "algebra_document", "dumps_document")


def test_handlers_call_the_traced_names(monkeypatch, tmp_path, capsys):
    calls = dict.fromkeys(TRACED_NAMES, 0)
    for name in TRACED_NAMES:
        def counting(*args, _name=name, _original=getattr(cli_module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cli_module, name, counting)
    code, out, _ = run_cli(capsys, "tau", "--p", "3", "--r", "2", "--sig", "1,1")
    assert code == EXIT_OK
    path = write_doc(tmp_path, "tau.json", out)
    for kind in ("--icochain", "--normalized"):
        assert run_cli(capsys, "invert", kind, "--in", path)[0] == EXIT_OK
    assert all(calls.values()), calls


def test_cli_import_path_skips_dataclasses():
    # dataclasses costs each process about 12 ms at startup
    src = str(Path(icochains.__file__).resolve().parents[1])
    probe = "import sys, icochains.cli, icochains.graded; sys.exit('dataclasses' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


# -- the process exit path ------------------------------------------------
#
# entry_point flushes and leaves through os._exit.  These tests run it as a
# process with stdout block-buffered, as it is by default in a pipe, where
# leaving without the flush would drop the tail of the output.

CLI = [sys.executable, "-m", "icochains.cli"]
# entry_point under a trace function, which leaves through sys.exit
SYS_EXIT = [sys.executable, "-c", "import sys; sys.settrace(lambda *args: None); "
            "from icochains.cli import entry_point; entry_point()"]
TAU_222 = ["tau", "--p", "2", "--r", "3", "--sig", "2,2,2"]
# 368 KB of text, far past a pipe's 64 KiB buffer
TAU_33 = ["tau", "--p", "3", "--r", "2", "--sig", "3,3"]


def process_env(unbuffered: bool = False) -> dict:
    src = str(Path(icochains.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


NOT_A_COCYCLE = json.dumps({
    "schema_version": "1", "p": 3, "r": 1, "n": 1, "kind": "icochain",
    "coeff_ring": "Fp", "entries": [{"key": [[1]], "value": 1}],
})


@pytest.mark.parametrize("argv,code", [
    (["count-terms", "--p", "3", "--r", "1", "--n", "2"], EXIT_OK),
    (["invert", "--in", "missing.json"], EXIT_INVALID),
    (["invert", "--in", "f.json"], EXIT_NOT_COCYCLE),
    (["dims", "--p", "3", "--r", "2", "--max-n", "6"], EXIT_BUDGET),
    (["dims", "--bad-flag"], EXIT_USAGE),
])
def test_process_exits_as_main_returns(argv, code, tmp_path, capsys, monkeypatch):
    write_doc(tmp_path, "f.json", NOT_A_COCYCLE)
    monkeypatch.chdir(tmp_path)
    try:
        in_process = main(argv)
    except SystemExit as exc:  # argparse usage errors
        in_process = exc.code
    captured = capsys.readouterr()
    result = subprocess.run(CLI + argv, capture_output=True, text=True, cwd=tmp_path,
                            env=process_env(), timeout=10)
    assert in_process == code
    assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, captured.err)


def test_tau_pipes_into_invert_through_an_os_pipe():
    ctx = GroupContext(2, 3)
    env = process_env()
    tau = subprocess.Popen(CLI + TAU_222, stdout=subprocess.PIPE, env=env)
    try:
        inverted = subprocess.run(CLI + ["invert", "--in", "-"], stdin=tau.stdout,
                                  capture_output=True, text=True, env=env, timeout=10)
        assert tau.wait(timeout=10) == 0
    finally:
        tau.stdout.close()
        tau.kill()
        tau.wait()
    assert inverted.returncode == 0, inverted.stderr
    assert inverted.stdout == dumps_document(
        algebra_document(AlgebraElem.monomial(ctx, (2, 2, 2))))
    # every byte of the document leaves the process, not only what the
    # buffer had passed on before the exit
    expected = dumps_document(cochain_document(
        realize(AlgebraElem.monomial(ctx, (2, 2, 2))), "icochain"))
    result = subprocess.run(CLI + TAU_222, capture_output=True, env=env, timeout=10)
    assert result.returncode == 0
    assert len(result.stdout) == len(expected) and result.stdout.decode() == expected


def test_the_checked_commands_decide_tau_of_a_degree_4_class_at_p_29():
    """The 164 836 entries of ``tau --p 29 --r 1 --sig 4`` pass the cocycle
    check, whose running total peaks at 538 790 terms, where a charge of
    every partition expanded, E (nN + 2r - n + 1), would be 18 296 796."""
    env = process_env()
    tau = subprocess.run(CLI + ["tau", "--p", "29", "--r", "1", "--sig", "4"],
                         capture_output=True, text=True, env=env, timeout=30)
    assert tau.returncode == 0, tau.stderr
    inverted = subprocess.run(CLI + ["invert", "--in", "-"], input=tau.stdout,
                              capture_output=True, text=True, env=env, timeout=30)
    assert (inverted.returncode, inverted.stderr) == (EXIT_OK, "")
    assert inverted.stdout == dumps_document(
        algebra_document(AlgebraElem.monomial(GroupContext(29, 1), (4,))))
    checked = subprocess.run(CLI + ["check-cocycle", "--in", "-"], input=tau.stdout,
                             capture_output=True, text=True, env=env, timeout=30)
    assert (checked.returncode, checked.stdout, checked.stderr) == (EXIT_OK, "true\n", "")


def _exit_outcome(argv: list, env: dict, close_after=None) -> tuple:
    """(exit code, lines of stderr) of a process whose stdout is a pipe
    that the reader closes before reading (``close_after`` None) or after
    ``close_after`` bytes."""
    if close_after is None:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                    env=env, timeout=10)
        finally:
            os.close(write_end)
        code, err = result.returncode, result.stderr
    else:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            proc.stdout.read(close_after)
            proc.stdout.close()
            _, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
            proc.wait()
        code = proc.returncode
    return code, err.decode().splitlines()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv,close_after", [
    (TAU_33, 20),  # like `| head -c 20`
    (["count-terms", "--p", "3", "--r", "1", "--n", "2"], None),
])
def test_closed_reader_gives_the_sys_exit_outcome(argv, close_after, unbuffered):
    """A reader that closes stdout early gets exit 141 and an empty stderr,
    through the fast exit and through sys.exit alike, buffered or not.
    Unbuffered, the raw write that the closing reader cuts short is
    followed by one more, which fails."""
    env = process_env(unbuffered)
    expected = (EXIT_BROKEN_PIPE, [])
    assert _exit_outcome(CLI + argv, env, close_after) == expected
    assert _exit_outcome(SYS_EXIT + argv, env, close_after) == expected


def test_profiler_still_prints_its_report():
    result = subprocess.run([sys.executable, "-m", "cProfile", *CLI[1:],
                             "count-terms", "--p", "2", "--r", "1", "--n", "1"],
                            capture_output=True, text=True, env=process_env(), timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("1\n")
    assert "function calls" in result.stdout and "Ordered by" in result.stdout


# Runs the CLI module as __main__ through runpy, with a trace function
# installed when the first argument is "trace", and reports a SystemExit.
_RUNPY_PROBE = """
import runpy, sys
if sys.argv.pop(1) == "trace":
    sys.settrace(lambda *args: None)
try:
    runpy.run_module("icochains.cli", run_name="__main__")
except SystemExit as exc:
    print("sys.exit", exc.code)
    raise
"""


@pytest.mark.parametrize("mode,stdout", [("trace", "1\nsys.exit 0\n"), ("plain", "1\n")])
def test_tracer_makes_the_cli_exit_through_sys_exit(mode, stdout):
    result = subprocess.run([sys.executable, "-c", _RUNPY_PROBE, mode,
                             "count-terms", "--p", "2", "--r", "1", "--n", "1"],
                            capture_output=True, text=True, env=process_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")


def test_main_leaves_the_garbage_collector_as_it_found_it(capsys):
    before = gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()
    assert main(TAU_222) == EXIT_OK
    assert (gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()) == before


def test_entry_point_defers_the_garbage_collector():
    probe = ("import gc, icochains.cli as cli\n"
             "cli.main = lambda: print(*gc.get_threshold(), gc.get_freeze_count() > 0) or 0\n"
             "cli.entry_point()\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=process_env(), timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (0, "50000 20 100 True\n", "")
