"""Small process that starts the benchmark's children and reports on them.

Linux starts a child's peak-RSS count at the resident size of the process
it was forked from, so children forked from the benchmark (which holds
numpy and the workload data) would all report at least its size. This
launcher stays small and forks them instead.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stdout", "timeout"}``; one JSON reply per stdout line, ``{"returncode",
"seconds", "cpu_s", "maxrss_kb"}``. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=subprocess.DEVNULL)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"returncode": proc.returncode, "seconds": seconds,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
