"""Run one op as fresh processes and measure it from outside.

The op's wall time runs from spawning its first process to the exit of its
last one.  Each process is reaped with ``os.wait4``, whose rusage gives that
process's own peak RSS; ``RUSAGE_CHILDREN`` would carry a running maximum
over every op this process ever ran.  Each process leads its own process
group, and a timeout kills every group of the op.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Outcome:
    wall_s: float
    exit_codes: list
    timed_out: bool
    peak_rss_kb: int
    stdout: str
    stderr: str

    @property
    def exited_ok(self) -> bool:
        return not self.timed_out and all(code == 0 for code in self.exit_codes)


class _Killer:
    """Kills the op's process groups once its timeout passes, unless the op
    is marked done first.  Both sides hold the lock, and the processes are
    reaped only after ``done``, so a group id is never reused under it."""

    def __init__(self, procs: list, timeout_s: float):
        self.procs = procs
        self.lock = threading.Lock()
        self.done = False
        self.fired = False
        self.timer = threading.Timer(timeout_s, self._kill)
        self.timer.daemon = True

    def _kill(self) -> None:
        with self.lock:
            if self.done:
                return
            self.fired = True
            for proc in self.procs:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def finish(self) -> None:
        with self.lock:
            self.done = True
        self.timer.cancel()
        self.timer.join()


def _spawn_pipeline(commands: list, out, err, env: dict, cwd: Path) -> list:
    procs = []
    stdin = subprocess.DEVNULL
    try:
        for i, argv in enumerate(commands):
            last = i == len(commands) - 1
            read_end, write_end = (None, out) if last else os.pipe()
            try:
                procs.append(subprocess.Popen(argv, stdin=stdin, stdout=write_end, stderr=err,
                                              env=env, cwd=cwd, start_new_session=True))
            except OSError:
                if read_end is not None:
                    os.close(read_end)
                raise
            finally:
                if not last:
                    os.close(write_end)
                if stdin is not subprocess.DEVNULL:
                    os.close(stdin)
            stdin = read_end
    except OSError:
        for proc in procs:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        raise
    return procs


def run_commands(commands: list, timeout_s: float, env: dict, workdir: Path) -> Outcome:
    """Run `commands` as a pipe (stdout of each into stdin of the next).

    The last process's stdout and every process's stderr go to files in
    `workdir`, so no pipe to this process can fill up and stall a child.
    """
    out_path, err_path = workdir / "op.stdout", workdir / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        procs = _spawn_pipeline(commands, out, err, env, workdir)
        killer = _Killer(procs, timeout_s)
        killer.timer.start()
        for proc in procs:
            # Wait without reaping, so the pid and its group stay reserved.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        killer.finish()
        codes, peak = [], 0
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            codes.append(proc.returncode)
            peak = max(peak, usage.ru_maxrss)  # kilobytes on Linux
    return Outcome(wall, codes, killer.fired, peak,
                   out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))
