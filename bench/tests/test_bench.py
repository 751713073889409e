"""Tests of the benchmark itself: failure accounting, seeding and inputs.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import runner
import workloads
from icochains import cli
from icochains.algebra import AlgebraElem, realize
from icochains.group_ring import GroupContext

ROOT = Path(__file__).resolve().parents[2]


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _py(code):
    return [sys.executable, "-c", code]


def _op_list(workload, seed, docdir, rounds=3):
    ops = workloads.build_round(workload, seed, docdir)
    labels, _ = run.measure(ops, f"{workload}/{seed}/order", rounds, lambda op: op.label,
                            time.perf_counter())
    return labels


def _doc_texts(docdir):
    return {p.name: p.read_text() for p in sorted(docdir.glob("*.json"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload, tmp_path):
    first = _op_list(workload, 7, tmp_path / "a")
    assert first == _op_list(workload, 7, tmp_path / "b")
    assert _doc_texts(tmp_path / "a") == _doc_texts(tmp_path / "b")
    assert first != _op_list(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_emit_only_what_the_cli_parses(workload, tmp_path):
    parser = cli.build_parser()
    for seed in (1, 2):
        for op in workloads.build_round(workload, seed, tmp_path / str(seed)):
            for args in op.cli_args:
                parsed = parser.parse_args(args)
                if getattr(parsed, "infile", "-") != "-":
                    cochain, kind = cli.parse_cochain_document(Path(parsed.infile).read_text())
                    assert kind == "icochain" and cochain.ctx.p == op.p
                    assert len(cochain.values) == workloads.LARGEP_ENTRIES


def test_roundtrip_classes_have_the_counted_sizes(tmp_path):
    for op in workloads.build_round("roundtrip", 3, tmp_path):
        sig = tuple(int(m) for m in op.cli_args[0][-1].split(","))
        cocycle = realize(AlgebraElem.monomial(GroupContext(op.p, op.r), sig))
        assert len(cocycle.values) == workloads.realized_entries(op.p, op.r, sig)


def test_corrupted_output_counts_as_failure(tmp_path):
    op = workloads.build_round("roundtrip", 1, tmp_path)[0]
    sig = [int(m) for m in op.cli_args[0][-1].split(",")]
    good = workloads.expected_roundtrip(op.p, op.r, sig)
    bad = dict(good, entries=[{"signature": sig, "coeff": 2}])
    for doc, verdict in ((good, None), (bad, "wrong output")):
        outcome = runner.run_commands([_py(f"print({json.dumps(doc)!r})")], 30, _env(), tmp_path)
        assert run.judge(op, outcome.exit_codes, outcome.stdout, outcome.timed_out) == verdict
    assert run.judge(op, [0], "not json") == "wrong output"
    assert run.judge(op, [0, 1], json.dumps(good)) == "exit codes [0, 1]"


def test_corrupted_dims_table_counts_as_failure(tmp_path):
    op = next(op for op in workloads.build_round("dims", 1, tmp_path) if op.label.endswith("max-n=2"))
    p, r = op.p, op.r

    def table(dim_h):
        rows = [f"{n} {(p**r - 1)**n} 0 0 {dim_h(n)} 0" for n in range(3)]
        return "\n".join(["n dim_C dim_Z dim_B dim_H expected_H"] + rows) + "\n"

    good = table(lambda n: math.comb(n + r - 1, r - 1))
    assert op.check(good)
    assert not op.check(table(lambda n: math.comb(n + r - 1, r - 1) + (n == 2)))
    assert not op.check("\n".join(good.splitlines()[:-1]))


def test_wrong_inverse_counts_as_failure(tmp_path):
    for op in workloads.build_round("invert-largep", 1, tmp_path):
        doc = json.loads(Path(op.cli_args[0][-1]).read_text())
        values = {tuple(map(tuple, e["key"])): e["value"] for e in doc["entries"]}
        expected = workloads.expected_invert(op.p, doc["n"], values)
        assert op.check(json.dumps(expected))
        entries = expected["entries"]
        wrong = ([dict(entries[0], coeff=entries[0]["coeff"] % (op.p - 1) + 1)] if entries
                 else [{"signature": [doc["n"]], "coeff": 1}])
        assert not op.check(json.dumps(dict(expected, entries=wrong)))


def test_timed_out_op_counts_as_failure_and_is_killed(tmp_path):
    sleeper = _py("import time; time.sleep(60)")
    reader = _py("import sys; sys.stdin.read()")
    start = time.perf_counter()
    outcome = runner.run_commands([sleeper, reader], 0.5, _env(), tmp_path)
    assert time.perf_counter() - start < 10
    assert outcome.timed_out
    assert outcome.exit_codes[0] == -9
    op = workloads.build_round("dims", 1, tmp_path)[0]
    assert run.judge(op, outcome.exit_codes, outcome.stdout, outcome.timed_out) == "timed out"


def test_real_op_passes_and_reports_its_own_peak_rss(tmp_path):
    op = next(op for op in workloads.build_round("dims", 1, tmp_path) if op.label.endswith("max-n=2"))
    outcome = runner.run_commands(workloads.commands(op), 60, _env(), tmp_path)
    assert run.judge(op, outcome.exit_codes, outcome.stdout, outcome.timed_out) is None
    assert outcome.peak_rss_kb > 1024


def test_tail_is_highest_percentile_with_ten_samples_above():
    value, pct, above = run.tail([float(i) for i in range(12, 0, -1)])
    assert (value, above) == (2.0, 10)
    assert pct == pytest.approx(100 / 11)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "dims", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
