#!/usr/bin/env python3
"""gcbench entry point: ``python3 benchmarks/gcbench/run.py [--workload NAME] --seed N``.

Three ways to run it (README.md has the glossary):

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one workload, the
  form the benchmark driver calls.  ``--trace 0`` prints the end-to-end
  metrics, ``--trace 1`` the per-layer metrics of a traced repetition; the
  last line of stdout is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``.
* no ``--workload`` — all four workloads one after another, each untraced
  then traced, every metric by name with its unit, answer hashes compared
  between runs that must agree.
* ``--repeat N`` — the untraced suite N times (seeds N, N+1, …) with median,
  quartiles and IQR ÷ median per end-to-end metric.

The script sets ``PYTHONPATH`` to the repo's ``src`` itself and runs the
benchmark in a child under ``PYTHONHASHSEED=0`` (the child's children inherit
both), so inputs never depend on hash order.  The script itself stays behind as
the child's supervisor: it adopts every process the benchmark orphans — shard
workers, the server child, ``multiprocessing``'s resource tracker, which only
ends *after* the process that started it — and does not return before each of
them has ended and been waited for.  It exits non-zero without printing a
result when the repo's sources are not there, and non-zero after printing when
any answer is wrong.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


#: Set in the benchmark child's environment, so it knows it is supervised.
SUPERVISED = "GCBENCH_SUPERVISED"

#: Seconds an orphan gets to end by itself before it is killed.
ORPHAN_GRACE_S = 3.0

_PR_SET_CHILD_SUBREAPER = 36


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # ended while we were listing
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def _reap_orphans() -> None:
    """Wait until this process has no child left; kill what will not end."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # nothing left to wait for
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def _supervise(env: dict) -> int:
    """Run the benchmark in a child; return only when no process is left."""
    import ctypes  # here, not at the top: shard workers re-import this module

    # orphaned descendants are re-parented to this process, not to init
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env=env)
    # the child unwinds through its own clean-up on SIGTERM; a terminal's
    # Ctrl-C reaches it directly (same process group)
    signal.signal(signal.SIGTERM, lambda signum, frame: child.send_signal(signum))
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_orphans()
    return code if code >= 0 else 128 - code


def _bootstrap() -> None:
    """Become the supervisor, unless this already is the supervised child."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"gcbench: no repo sources at {SRC}; nothing to measure\n")
        raise SystemExit(2)
    if os.environ.get(SUPERVISED) == str(os.getppid()):
        return
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONHASHSEED="0", **{SUPERVISED: str(os.getpid())},
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in paths if p and p != str(SRC)]))
    raise SystemExit(_supervise(env))


if __name__ == "__main__":
    _bootstrap()
    sys.path.insert(0, str(HERE.parent))  # makes the `gcbench` package importable
    from gcbench.bench import main

    sys.exit(main(sys.argv[1:], __doc__))
