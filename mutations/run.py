"""Run the committed mutation catalogues: every mutation must be caught.

    python mutations/run.py [CATALOGUE.json ...]

With no argument it runs every ``*.json`` catalogue next to this script.
A catalogue holds ``mutations``, each a ``file`` of the repository, an
``old`` text that occurs exactly once in it, the ``new`` text that
replaces it, the pytest node ``tests`` that must fail and an optional
``note``; and ``left_out``, mutations that provably cannot change an
answer, each with its ``reason``, whose ``old`` text is checked to
occur once as well.

The runner copies ``src/`` to a temporary directory and runs every listed
test on the unmutated copy, which must pass.  Then it applies one
mutation at a time to the copy and runs that mutation's tests, with
``src/`` of the copy first on ``PYTHONPATH``.  A mutation is caught when
each of its tests fails, or when the run exceeds ``TIMEOUT_S``.
Hypothesis runs with a fixed seed and a database in the temporary
directory, so a run is repeatable and leaves nothing in the repository.
Exit status: 0 when every mutation is caught, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def run_tests(tmp: Path, tests: list) -> tuple:
    """Run the node ids against the copy under ``tmp``: pytest's exit
    status, the failed ids (None on a timeout) and the output's last line."""
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp / "hypothesis")}
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {TIMEOUT_S} s"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.M))
    lines = result.stdout.strip().splitlines()
    return result.returncode, failed, lines[-1] if lines else result.stderr.strip()


def main(paths: list) -> int:
    catalogues = [Path(p) for p in paths] or sorted(Path(__file__).parent.glob("*.json"))
    mutations = []
    for catalogue in catalogues:
        doc = json.loads(catalogue.read_text())
        for entry in doc["mutations"] + doc.get("left_out", []):
            count = (ROOT / entry["file"]).read_text().count(entry["old"])
            if count != 1:
                print(f"{catalogue.name}: {entry['name']!r}: old text occurs {count} times "
                      f"in {entry['file']}")
                return 1
        mutations += doc["mutations"]
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        shutil.copytree(ROOT / "src", tmp / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        every = sorted({test for m in mutations for test in m["tests"]})
        status, failed, last = run_tests(tmp, every)
        if status != 0:
            print(f"the unmutated tree fails: {sorted(failed or [])} ({last})")
            return 1
        print(f"unmutated: {len(every)} tests pass ({last})")
        missed = 0
        for m in mutations:
            path = tmp / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["old"], m["new"]))
            start = time.perf_counter()
            _, failed, last = run_tests(tmp, m["tests"])
            path.write_text(original)
            seconds = time.perf_counter() - start
            if failed is None:
                verdict = "caught (timeout)"
            else:
                passed = [t for t in m["tests"] if t not in failed]
                verdict = f"MISSED: {passed} pass" if passed else "caught"
                missed += bool(passed)
            print(f"{verdict}: {m['name']} ({seconds:.1f} s; {last})")
    print(f"{len(mutations) - missed} of {len(mutations)} mutations caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
