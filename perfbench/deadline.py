"""The fixed per-op deadline, for in-process calls and for child processes."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from typing import Dict, List, Optional, Tuple

# Seconds one op may take before it counts as failed.  The slowest ops that
# complete take about 4.3 s (`verify all`) and 4.1 s (cck_zeta at
# 1 - q = 1e-5) on a 2-core machine; 15 s leaves room for a loaded machine.
DEADLINE_S = 15.0


class DeadlineExceeded(BaseException):
    """Raised inside a call that outlives its deadline.  A BaseException, so
    that the library's own ``except Exception`` handlers let it through."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, args, kwargs, deadline: float):
    """Call fn under a wall-clock deadline (SIGALRM; main thread only).

    Returns (status, value, seconds): ("ok", result), ("raised",
    {"type", "msg"}) or ("deadline", {"type", "msg"}), and the time of the
    call alone; arming and disarming the timer stay outside it.
    """
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
        return "ok", value, time.perf_counter() - t0
    except DeadlineExceeded:
        return "deadline", {"type": "DeadlineExceeded",
                            "msg": f"no result after {deadline:g} s"}, \
            time.perf_counter() - t0
    except Exception as exc:  # every library error is an op outcome
        return "raised", {"type": type(exc).__name__, "msg": str(exc)[:300]}, \
            time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_process(argv: List[str], env: Dict[str, str], deadline: float,
                out_path: str, cwd: Optional[str] = None) -> Tuple[str, Dict]:
    """Run one child process to completion or deadline, stdout to out_path.

    Returns (status, info) with status "ok", "exit" (non-zero exit code) or
    "deadline"; info holds wall seconds, exit code, peak RSS in MB and the
    tail of stderr.
    """
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        fired = threading.Event()

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(deadline, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        stderr = fh.read()[-400:].decode("utf-8", "replace")
    os.unlink(err_path)
    info = {"wall": wall, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr}
    if fired.is_set():
        return "deadline", info
    return ("ok" if proc.returncode == 0 else "exit"), info
