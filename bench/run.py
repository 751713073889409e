#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the icochains CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

One closed-loop client runs one op at a time.  Each op is a fresh
``python -m icochains.cli`` process (two for the ``tau | invert`` pipe)
importing the package from ``src/`` of the checkout.  Setup builds a round
of seeded ops with their expected outputs; the loop runs whole rounds, each
in a new seeded order.  The number of rounds is ``--seconds`` divided by the
workload's nominal round time (``workloads.ROUND_SECONDS``), so a run lasts
about ``--seconds`` at the speed of the commit that set those times, and
every run of a workload, on any commit, measures the same number of ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, once untraced as above and once in this process under spans around
the calls into each layer (see ``spans.py``), and reports per-layer numbers
and the tracing overhead.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and stamp the environment.
Exit status is 0 when a result was printed, 2 when the program could not be
set up (for instance without ``src/icochains``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import runner
import spans as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
# No op starts unless it would end, even at its timeout, by this many seconds
# after the benchmark started; every run exits well within 180 s.
TIME_LIMIT_S = 170.0
# op_tail_s is the highest percentile with at least this many ops above it,
# so an untraced run measures at least one more op than that.
TAIL_ABOVE = 10

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layer spans and the exact counts each records per op.
LAYER_COUNTS = {
    "cli.main": {},
    "algebra.realize": {"entries_out": "count"},
    "cli.serialize": {"bytes": "B"},
    "cli.parse": {"bytes": "B"},
    "cochain.is_cocycle": {"entries_in": "count", "terms_computed": "count"},
    "algebra.invert": {"count_terms": "count"},
    "group_ring.shifted_monomial": {},
    "oracle.d_matrix": {"rows": "count", "cols": "count", "nnz": "count"},
    "oracle.rank": {"rank": "count", "dense_bytes": "B"},
}


def per_layer_units() -> dict:
    units = {}
    for layer, counts in LAYER_COUNTS.items():
        units[f"{layer}.self_s"] = "s"
        units.update({f"{layer}.{key}": unit for key, unit in counts.items()})
        units[f"{layer}.errors"] = "count"
    units["process.startup_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class SetupError(RuntimeError):
    """The program could not be run from this checkout."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "loadavg_start": os.getloadavg()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def startup_commands() -> list:
    return [[sys.executable, "-c", "import icochains.cli"]]


def setup(workload: str, seed: int) -> tuple:
    """Check that a fresh interpreter imports the CLI, then build the round.

    Returns (ops, seconds taken).
    """
    start = time.perf_counter()
    probe = runner.run_commands(startup_commands(), OP_TIMEOUT_S, child_env(), WORKDIR)
    if not probe.exited_ok:
        raise SetupError(f"cannot import icochains.cli from {ROOT / 'src'}:\n{probe.stderr}")
    ops = workloads.build_round(workload, seed, WORKDIR / "docs")
    return ops, time.perf_counter() - start


def judge(op: workloads.Op, exit_codes: list, stdout: str, timed_out: bool = False):
    """Why the op failed, or None if it passed."""
    if timed_out:
        return "timed out"
    if any(code != 0 for code in exit_codes):
        return f"exit codes {exit_codes}"
    if not op.check(stdout):
        return "wrong output"
    return None


def round_count(workload: str, seconds: float, ops_per_round: int, runs_per_op: int = 1,
                min_ops: int = 1) -> int:
    """Rounds that fill `seconds` at the nominal round time, with at least
    `min_ops` ops and at least one round."""
    nominal = workloads.ROUND_SECONDS[workload] * runs_per_op
    return max(1, -(-min_ops // ops_per_round), round(seconds / nominal))


def measure(ops: list, order_seed: str, rounds: int, run_op, began: float) -> tuple:
    """Run `rounds` rounds of `ops`, each in a new seeded order.

    Stops early only if an op could no longer finish within TIME_LIMIT_S.
    Returns (results, wall seconds).
    """
    rng = random.Random(order_seed)
    results = []
    start = time.perf_counter()
    for _ in range(rounds):
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            if time.perf_counter() - began + OP_TIMEOUT_S > TIME_LIMIT_S:
                return results, time.perf_counter() - start
            results.append(run_op(op))
    return results, time.perf_counter() - start


def tail(walls: list) -> tuple:
    """(value, percentile, samples above) of the highest percentile that
    still has TAIL_ABOVE samples above it; the minimum if none has."""
    ranked = sorted(walls)
    k = max(0, len(ranked) - 1 - TAIL_ABOVE)
    pct = 100.0 * k / (len(ranked) - 1) if len(ranked) > 1 else 0.0
    return ranked[k], pct, len(ranked) - 1 - k


def run_untraced(ops, workload, seed, seconds, setups, began) -> tuple:
    env = child_env()

    def run_op(op):
        outcome = runner.run_commands(workloads.commands(op), OP_TIMEOUT_S, env, WORKDIR)
        reason = judge(op, outcome.exit_codes, outcome.stdout, outcome.timed_out)
        return op, outcome, reason

    rounds = round_count(workload, seconds, len(ops), min_ops=TAIL_ABOVE + 1)
    results, wall = measure(ops, f"{workload}/{seed}/order", rounds, run_op, began)
    walls = [outcome.wall_s for _, outcome, _ in results]
    failed = sum(reason is not None for _, _, reason in results)
    tail_s, tail_pct, above = tail(walls)
    metrics = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "ops_per_s": len(results) / wall,
        "ok_ratio": (len(results) - failed) / len(results),
        "peak_rss_mb": max(outcome.peak_rss_kb for _, outcome, _ in results) / 1024,
        "setup_s": statistics.median(setups),
    }
    notes = {"ops": len(results), "rounds": rounds, "wall_s": wall,
             "op_tail_percentile": tail_pct, "ops_above_tail": above,
             "op_walls": [[op.label, outcome.wall_s] for op, outcome, _ in results],
             "fail_ratio": failed / len(results),
             "failures": [f"{op.label}: {reason}" for op, _, reason in results if reason]}
    return metrics, len(results), failed, notes


def run_traced(ops, workload, seed, seconds, began) -> tuple:
    env = child_env()
    tracer = tracing.Tracer()

    def run_op(op):
        plain = runner.run_commands(workloads.commands(op), OP_TIMEOUT_S, env, WORKDIR)
        startup = runner.run_commands(startup_commands(), OP_TIMEOUT_S, env, WORKDIR).wall_s
        tracer.op += 1
        tracing.clear_caches()
        tracing.probe_span(tracer, op.p, op.r)
        codes, stdout = tracing.run_in_process(tracer, op.cli_args)
        traced_s = tracer.root_time(tracer.op, "cli.main")
        reason = (judge(op, plain.exit_codes, plain.stdout, plain.timed_out)
                  or judge(op, codes, stdout))
        return {"op": op, "reason": reason, "summary": tracer.op_summary(tracer.op),
                "startup_s": startup,
                "overhead_s": plain.wall_s - traced_s - len(op.cli_args) * startup}

    with tracing.instrument(tracer):
        rounds = round_count(workload, seconds, len(ops), runs_per_op=2)
        results, wall = measure(ops, f"{workload}/{seed}/order", rounds, run_op, began)
    failed = sum(r["reason"] is not None for r in results)
    metrics = {}
    for name in per_layer_units():
        if name == "process.startup_s":
            metrics[name] = statistics.median(r["startup_s"] for r in results)
        elif name == "trace.overhead_s":
            metrics[name] = statistics.median(r["overhead_s"] for r in results)
        elif name.endswith(".errors"):
            metrics[name] = sum(r["summary"].get(name, 0) for r in results)
        elif name.endswith("_s"):
            metrics[name] = statistics.median(r["summary"].get(name, 0.0) for r in results)
        else:  # exact counts stay observed values
            metrics[name] = statistics.median_low(r["summary"].get(name, 0) for r in results)
    (WORKDIR / f"spans-{workload}-{seed}.json").write_text(json.dumps(tracer.dump()))
    op_self = {name: value for name, value in metrics.items()
               if name.endswith(".self_s") and name != "group_ring.shifted_monomial.self_s"}
    notes = {"ops": len(results), "rounds": rounds, "wall_s": wall,
             "fail_ratio": failed / len(results),
             "largest_self_in_op": max(op_self, key=op_self.get),
             "computed_counts": list(tracing.COMPUTED_COUNTS),
             "failures": [f"{r['op'].label}: {r['reason']}" for r in results if r["reason"]]}
    return metrics, len(results), failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    if not (ROOT / "src" / "icochains" / "cli.py").is_file():
        print(f"error: no icochains sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    env_stamp = environment()
    if env_stamp["loadavg_start"][0] > env_stamp["nproc"]:
        print(f"warning: load average {env_stamp['loadavg_start'][0]:.2f} is above "
              f"nproc {env_stamp['nproc']}; timings will be noisy", file=sys.stderr)

    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            ops, took = setup(args.workload, args.seed)
            setups.append(took)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed, notes = run_traced(
            ops, args.workload, args.seed, args.seconds, began)
        units = per_layer_units()
    else:
        metrics, attempted, failed, notes = run_untraced(
            ops, args.workload, args.seed, args.seconds, setups, began)
        units = END_TO_END
    env_stamp["loadavg_end"] = os.getloadavg()

    print(json.dumps({"env": env_stamp}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **notes}))
    for name, value in metrics.items():
        print(f"{args.workload:>13} {name:<40} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload:>13} {'fail_ratio':<40} {notes['fail_ratio']:>16.6g} "
              f"ratio ({failed}/{attempted} ops)")
        print(f"{args.workload:>13} op_tail_s is p{notes['op_tail_percentile']:.1f} of "
              f"{attempted} ops ({notes['ops_above_tail']} above it)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
