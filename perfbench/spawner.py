"""Small helper process that runs CLI children and reports their usage.

A child's ru_maxrss also counts the memory of the process that forked it
(the kernel carries the forking process's high-water mark across exec), so
children are forked from this process, which stays small, rather than from
the benchmark, which holds and parses large outputs.

Protocol, one JSON object per line: the benchmark writes
{"argv", "env", "cwd", "stdout", "stderr", "timeout"}; the child's output
goes to the two named files; this process answers
{"code", "wall", "cpu", "rss_mb", "timed_out"}, where code is null when the
child was killed at the timeout.  It exits at end of input.
"""
import json
import os
import select
import subprocess
import sys
import time


def run(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                env=req["env"], cwd=req["cwd"])
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], req["timeout"])
            if not ready:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": None if not ready else proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,   # KiB on Linux
        "timed_out": not ready,
    }


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
