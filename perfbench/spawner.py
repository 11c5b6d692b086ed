"""Small launcher that runs the benchmark's child processes and reaps them with ``wait4``.

On Linux a process's peak RSS (``ru_maxrss``) starts at the resident size
of the address space it replaced at ``exec``; after ``fork`` or ``vfork``
that is the parent's. Spawned from the benchmark process, which holds the
generated corpus, every child would report at least the benchmark's own
size. This launcher imports nothing heavy, so the figure each child
reports is its own.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "log", "env"}``;
one JSON reply per line on stdout, ``{"wall_s", "peak_rss_kib", "exit_code"}``.
The launcher exits when stdin closes; on SIGTERM it kills and reaps the
child it is waiting for, then exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped; tell Popen
        reply = {"wall_s": wall, "peak_rss_kib": usage.ru_maxrss, "exit_code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
