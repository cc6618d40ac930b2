"""Child-process launcher for the benchmark's CLI calls.

On Linux a child's peak-RSS figure (ru_maxrss from wait4) also counts the
resident memory of the process it was forked or vforked from, up to the exec.
run.py therefore starts this launcher before it builds any graph, and every
CLI child is started from here, where that inherited share is a bare
interpreter rather than the benchmark's graphs and results.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
     "timeout": seconds}
and one JSON reply per line on stdout,
    {"status": exit code, "wall_s": seconds, "maxrss_kb": peak RSS}.
A child still running at its timeout is killed. The launcher exits when its
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run_child(request):
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = perf_counter()
        child = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        # Popen.kill polls first, so a timer firing after the reap is a no-op.
        timer = threading.Timer(request["timeout"], child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"status": child.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_child(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
