"""Seeded workloads: which CLI commands each op runs and how its output is checked.

A workload is a *round* of ops that setup builds once from the seed; the
measuring loop repeats the round, each time in a freshly shuffled order.
Every round holds one op per size class, so any whole number of
rounds is the same mix of work and the seed changes which inputs run, not
how much work they are.  Each op's expected output is worked out here, from
the inputs, never read back from the CLI.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("roundtrip", "dims", "invert-largep")

# Wall seconds of one round of each workload, measured when the benchmark
# was written (2-core Xeon VM).  A run measures --seconds / this many rounds:
# the op count is fixed by the benchmark, never by how fast the program is,
# so both sides of a comparison run the same ops.
ROUND_SECONDS = {"roundtrip": 20.0, "dims": 5.6, "invert-largep": 47.0}

# Some size classes take more than one slot of a round, so that the median
# op and the op with ten ops above it (op_tail_s) fall inside one class.  On
# the gap between two classes they would be the extreme op of a class, which
# swings with every noisy op.

# roundtrip: (p, r, degree) classes whose realized cocycles have about 4-6k
# entries (1-1.7 MB documents), about 1/12 of the 62 500-entry case that
# takes 49 s in the cocycle check.  Two rounds make 14 ops; the 4th and the
# 7th-8th fastest are then (2, 3, 6) ops.
ROUNDTRIP_SLOTS = ((5, 2, 3), (3, 2, 5), (3, 3, 3), (2, 3, 6), (2, 3, 6), (2, 3, 6), (2, 3, 6))

# dims: (p, r, max_n); coboundary-matrix builds plus Gauss-Jordan ranks.
# Four rounds make 20 ops; the 10th and 10th-11th fastest are then among
# the twelve (2, 4, 2) and (2, 3, 3) ops, which take about the same time.
DIMS_SLOTS = ((3, 2, 3), (2, 3, 3), (2, 2, 6), (2, 4, 2), (2, 4, 2))

# invert-largep: one prime from each of LARGEP_STRATA equal slices of
# [LARGEP_LOW, LARGEP_HIGH).  Invert time grows faster than p^2 here, so
# narrow strata keep the median op the same size from seed to seed.
LARGEP_LOW, LARGEP_HIGH, LARGEP_STRATA = 500, 1100, 30
LARGEP_ENTRIES = 200
# Entries placed on the probe's support so the expected coefficient is
# (almost always) nonzero and the check compares a real value.
LARGEP_PROBE_HITS = 8


@dataclass
class Op:
    """One op: a pipe of CLI invocations and a check of the last one's stdout."""

    label: str
    p: int
    r: int
    cli_args: list  # one argument list per process; two form `a | b`
    check: Callable[[str], bool] = field(repr=False)


def cli_prefix() -> list:
    return [sys.executable, "-m", "icochains.cli"]


def commands(op: Op) -> list:
    return [cli_prefix() + args for args in op.cli_args]


# -- roundtrip ------------------------------------------------------------

def _power_entries(p: int, r: int, m: int) -> int:
    """Entries of the degree-m generator power of one variable, counted
    from the generator cocycles' supports."""
    if m == 0:
        return 1
    degree_one = (p - 1) * p ** (r - 1)        # exponent-reading cocycle
    degree_two = p * (p - 1) // 2 * p ** (2 * (r - 1))  # carry cocycle
    k, odd = divmod(m, 2)
    return degree_one ** odd * degree_two ** k


def realized_entries(p: int, r: int, sig: tuple) -> int:
    return math.prod(_power_entries(p, r, m) for m in sig)


def roundtrip_signatures(p: int, r: int, degree: int) -> list:
    """Signatures of the class that share its most common cocycle size.

    At (3, 3, 3) this leaves out (1, 1, 1), whose cocycle is a third larger
    than the other nine; drawing it by seed would make one run's work
    differ from another's.
    """
    sigs = [s for s in itertools.product(range(degree + 1), repeat=r) if sum(s) == degree]
    sizes = [realized_entries(p, r, s) for s in sigs]
    common = max(set(sizes), key=sizes.count)
    return [s for s, n in zip(sigs, sizes) if n == common]


def expected_roundtrip(p: int, r: int, sig: tuple) -> dict:
    return {"schema_version": "1", "p": p, "r": r,
            "entries": [{"signature": list(sig), "coeff": 1}]}


def _json_equals(expected: dict) -> Callable[[str], bool]:
    def check(stdout: str) -> bool:
        try:
            return json.loads(stdout) == expected
        except ValueError:
            return False
    return check


def roundtrip_round(rng: random.Random) -> list:
    ops = []
    for p, r, degree in ROUNDTRIP_SLOTS:
        sig = rng.choice(roundtrip_signatures(p, r, degree))
        sig_text = ",".join(map(str, sig))
        ops.append(Op(f"tau p={p} r={r} sig={sig_text} | invert", p, r,
                      [["tau", "--p", str(p), "--r", str(r), "--sig", sig_text],
                       ["invert", "--in", "-"]],
                      _json_equals(expected_roundtrip(p, r, sig))))
    return ops


# -- dims -----------------------------------------------------------------

def check_dims(p: int, r: int, max_n: int, stdout: str) -> bool:
    """N+1 rows; dim_C = (p^r-1)^n and dim_H = C(n+r-1, r-1) in every row.

    The CLI's own expected_H column is not consulted.
    """
    lines = stdout.splitlines()
    if len(lines) != max_n + 2 or lines[0].split()[:5] != ["n", "dim_C", "dim_Z", "dim_B", "dim_H"]:
        return False
    for n, line in enumerate(lines[1:]):
        cols = line.split()
        try:
            row_n, dim_c, dim_h = int(cols[0]), int(cols[1]), int(cols[4])
        except (IndexError, ValueError):
            return False
        if (row_n, dim_c, dim_h) != (n, (p ** r - 1) ** n, math.comb(n + r - 1, r - 1)):
            return False
    return True


def dims_round() -> list:
    return [Op(f"dims p={p} r={r} max-n={n}", p, r,
               [["dims", "--p", str(p), "--r", str(r), "--max-n", str(n)]],
               lambda out, p=p, r=r, n=n: check_dims(p, r, n, out))
            for p, r, n in DIMS_SLOTS]


# -- invert-largep --------------------------------------------------------

def largep_primes(rng: random.Random) -> list:
    from icochains.group_ring import is_prime

    width = (LARGEP_HIGH - LARGEP_LOW) // LARGEP_STRATA
    primes = []
    for lo in range(LARGEP_LOW, LARGEP_HIGH, width):
        choices = [q for q in range(lo, lo + width) if is_prime(q)]
        if not choices:
            raise ValueError(f"no prime in [{lo}, {lo + width})")
        primes.append(rng.choice(choices))
    return primes


def largep_values(rng: random.Random, p: int, n: int) -> dict:
    """A 200-entry r=1 cochain of degree n, some entries on the probe's
    support (keys s^q at the (s-1)^(p-1) slot, s elsewhere)."""
    top_slot = 1 if n % 2 else 0
    probe_keys = {tuple((q,) if j == top_slot else (1,) for j in range(n))
                  for q in rng.sample(range(1, p), LARGEP_PROBE_HITS)} if n > 1 else {((1,),)}
    keys = set(probe_keys)
    while len(keys) < LARGEP_ENTRIES:
        keys.add(tuple((rng.randrange(1, p),) for _ in range(n)))
    return {k: rng.randrange(1, p) for k in sorted(keys)}


def cochain_text(p: int, n: int, values: dict) -> str:
    return json.dumps({
        "schema_version": "1", "p": p, "r": 1, "n": n,
        "kind": "icochain", "coeff_ring": "Fp",
        "entries": [{"key": [list(u) for u in k], "value": v} for k, v in values.items()],
    })


def expected_invert(p: int, n: int, values: dict) -> dict:
    """The reference: invert_normalized on the same values, a path that
    evaluates the cochain on group-element tuples and builds no probe
    tensors."""
    from icochains.algebra import invert_normalized
    from icochains.cochain import NormalizedCochain
    from icochains.group_ring import MOD_P, GroupContext

    terms = invert_normalized(NormalizedCochain(GroupContext(p, 1), n, MOD_P, values)).terms
    return {"schema_version": "1", "p": p, "r": 1,
            "entries": [{"signature": list(s), "coeff": c} for s, c in sorted(terms.items())]}


def largep_round(rng: random.Random, docdir: Path) -> list:
    docdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, p in enumerate(largep_primes(rng)):
        n = rng.randint(1, 3)
        values = largep_values(rng, p, n)
        path = docdir / f"largep-{i:02d}.json"
        path.write_text(cochain_text(p, n, values))
        ops.append(Op(f"invert --unchecked p={p} n={n}", p, 1,
                      [["invert", "--unchecked", "--in", str(path)]],
                      _json_equals(expected_invert(p, n, values))))
    return ops


def build_round(workload: str, seed: int, docdir: Path) -> list:
    """The ops of one round; the same seed gives the same ops."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "roundtrip":
        return roundtrip_round(rng)
    if workload == "dims":
        return dims_round()
    if workload == "invert-largep":
        return largep_round(rng, docdir)
    raise ValueError(f"unknown workload {workload!r}")
