"""Starts one process per request and reports its wall time and peak RSS.

Usage: python3 launcher.py   (requests on stdin, replies on stdout)

A request line is JSON {"argv": [...], "stdout": path, "stderr": path,
"timeout_s": seconds}; the reply line is {"wall_s", "rss_mb", "exit"}, with
a negative exit for a child killed by a signal. Peak RSS comes from
os.wait4. Linux starts a child's peak-RSS count from its parent's resident
size at the fork, so children are started from this small process and not
from the benchmark, which holds every generated instance in memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout_s"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                 "exit": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
