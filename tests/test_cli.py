"""CLI commands, document validation, exit codes, and byte stability."""

import decimal
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icochains
from icochains import (
    AlgebraElem,
    GroupContext,
    bockstein_cocycle,
    carry_cocycle,
    count_terms_closed_form,
    exponent_cocycle,
    realize,
)
from icochains.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NOT_COCYCLE,
    EXIT_OK,
    EXIT_USAGE,
    DocumentError,
    algebra_document,
    cochain_document,
    dumps_document,
    main,
    parse_algebra_document,
    parse_cochain_document,
)

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
        parse_cochain_document(broken(schema_version="2"))
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
    e = parse_algebra_document(text)
    assert e.terms == {(2,): 1}
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
        assert parse_algebra_document(outputs[0]).terms == expected_terms


def test_invert_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO((GOLDEN / "h1_p3r1.json").read_text()))
    code, out, err = run_cli(capsys, "invert", "--in", "-")
    assert code == EXIT_OK, err
    assert parse_algebra_document(out).terms == {(2,): 1}


def test_invert_override_flag(tmp_path, capsys):
    path = write_doc(tmp_path, "z.json", (GOLDEN / "z1_p2r1.json").read_text())
    code, out_n, _ = run_cli(capsys, "invert", "--in", path, "--normalized")
    code2, out_i, _ = run_cli(capsys, "invert", "--in", path, "--icochain")
    assert code == code2 == EXIT_OK
    assert out_n == out_i  # the correspondence is value-for-value


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
        assert parse_algebra_document(inv_out).terms == expected


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
                assert parse_algebra_document(inv_out).terms == {sig: 1}, (p, r, sig)


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
    assert parse_algebra_document(out).terms == {(1,): 1}


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


def test_check_cocycle_refuses_an_over_budget_check(tmp_path):
    # 1 400 degree-1 entries at p = 4099 pass the sparse lemma (3 * 1400 > 4098);
    # the summed partition has at most 1400 * (2 + 4098) terms: decided
    doc = {"schema_version": "1", "p": 4099, "r": 1, "n": 1, "kind": "icochain",
           "coeff_ring": "Fp", "entries": [{"key": [[u]], "value": 1} for u in range(1, 1401)]}
    path = write_doc(tmp_path, "wide.json", json.dumps(doc))
    for argv, out in ((["check-cocycle", "--in", path], "false\n"), (["invert", "--in", path], "")):
        result = subprocess.run([sys.executable, "-m", "icochains.cli", *argv],
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == EXIT_NOT_COCYCLE, (argv, result.stderr)
        assert "Traceback" not in result.stderr and result.stdout == out
    # 2 100 degree-2 keys (s, s^u) bound 2100 * (2 + 4097 + 4098) terms: refused
    doc["n"] = 2
    doc["entries"] = [{"key": [[1], [u]], "value": 1} for u in range(1, 2101)]
    path = write_doc(tmp_path, "wide2.json", json.dumps(doc))
    for argv in (["check-cocycle", "--in", path], ["invert", "--in", path]):
        result = subprocess.run([sys.executable, "-m", "icochains.cli", *argv],
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == EXIT_BUDGET, (argv, result.stderr)
        assert "17213700" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""


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


def test_invert_rejects_integer_coefficients(tmp_path, capsys):
    ctx = GroupContext(2, 1)
    doc = dumps_document(cochain_document(carry_cocycle(ctx, 1), "normalized"))
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


def test_dims_budget_exit(capsys):
    code, out, err = run_cli(capsys, "dims", "--p", "3", "--r", "2",
                             "--max-n", "3", "--budget", "1000")
    assert code == EXIT_BUDGET
    assert "entries" in err and out == ""


def test_negative_dims_budget_is_a_usage_error():
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "dims", "--p", "3", "--r", "1",
         "--max-n", "2", "--budget", "-1"],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_USAGE
    assert "nonnegative budget" in result.stderr and result.stdout == ""


def test_dims_past_the_dense_budget(capsys):
    # the dense d_3 at (3, 2) alone would have 8^7 > 2^24 entries
    code, out, _ = run_cli(capsys, "dims", "--p", "3", "--r", "2", "--max-n", "4")
    assert code == EXIT_OK
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(row[4] == row[5] for row in rows)


def test_dims_refuses_before_enumerating():
    # N = 342: degree 2 needs N^2 + N^3 keys, over the 2^24 default
    result = subprocess.run(
        [sys.executable, "-m", "icochains.cli", "dims", "--p", "7", "--r", "3", "--max-n", "3"],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_BUDGET
    assert str(342**2 + 342**3) in result.stderr
    assert result.stdout == ""


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


@pytest.mark.parametrize("argv,required", [
    (["--p", "3", "--r", "5000", "--n", "60"], 4999 * 60 * 60),  # DP steps
    (["--p", "3", "--r", "1", "--n", "1000000000"], 150514998),  # digits of 2^(5 10^8)
])
def test_count_terms_refuses_before_computing(argv, required):
    result = subprocess.run([sys.executable, "-m", "icochains.cli", "count-terms", *argv],
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == EXIT_BUDGET, result.stderr
    assert str(required) in result.stderr and result.stdout == ""


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


# Runs cli.main in a fresh interpreter, then checks whether numpy was
# imported against the expectation given as the first argument.
_IMPORT_PROBE = """
import sys
from icochains import cli
expect_numpy, argv = sys.argv[1] == "numpy", sys.argv[2:]
assert cli.main(argv) == 0, argv
assert ("numpy" in sys.modules) == expect_numpy, argv
"""


def test_numpy_is_imported_only_by_kernel_commands(tmp_path):
    def doc(name, f):
        return write_doc(tmp_path, name, dumps_document(cochain_document(f, "icochain")))

    ctx2, ctx3 = GroupContext(2, 2), GroupContext(3, 2)
    p2 = doc("p2.json", realize(AlgebraElem.monomial(ctx2, (1, 1))))
    p3 = doc("p3.json", realize(AlgebraElem.monomial(ctx3, (1, 1))))
    p3b = doc("b3.json", exponent_cocycle(ctx3, 1))
    without = [
        ["tau", "--p", "3", "--r", "2", "--sig", "2,1"],
        ["invert", "--unchecked", "--in", p2],
        ["invert", "--unchecked", "--in", p3],
        ["invert", "--unchecked", "--normalized", "--in", p3],
        ["invert", "--in", p3],
        ["invert", "--normalized", "--in", p3],
        ["check-cocycle", "--in", p3],
        ["cup", "--in", p3, "--in", p3b],
        ["count-terms", "--p", "3", "--r", "2", "--n", "4"],
        ["dims", "--p", "2", "--r", "1", "--max-n", "1"],
    ]
    with_numpy = [
        ["d", "--in", p3b],
    ]
    for expect, runs in (("no-numpy", without), ("numpy", with_numpy)):
        for argv in runs:
            result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, expect, *argv],
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, (expect, argv, result.stderr)


def test_cli_import_path_skips_dataclasses():
    # dataclasses costs each process about 12 ms at startup
    src = str(Path(icochains.__file__).resolve().parents[1])
    probe = "import sys, icochains.cli, icochains.graded; sys.exit('dataclasses' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
