"""Run one command and report its wall time and peak memory.

    python3 perfbench/spawn.py LOG TIMEOUT_S -- PROGRAM ARGS...

Prints {"code", "wall_s", "maxrss_kb"} as JSON.  Linux counts in a child's
peak RSS the memory of the process that forked it, so commands are started
from this small process rather than from the benchmark, which holds numpy
and the outputs it checks.  A command still running after TIMEOUT_S seconds
is killed.
"""

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    log_path, timeout, sep, *command = argv
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    with open(log_path, "wb") as log, open(os.devnull, "wb") as null:
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            os.dup2(null.fileno(), 1)
            os.dup2(log.fileno(), 2)
            try:
                os.execvp(command[0], command)
            finally:
                os._exit(127)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, max(float(timeout), 0.1))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"code": os.waitstatus_to_exitcode(status),
                      "wall_s": wall, "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
