"""Op launcher for run.py: reads one JSON request per stdin line,
{"args": [...], "timeout": s}, runs `python args...` in the checkout
root, and answers with one JSON line {rc, wall, maxrss_kb, cpu, out, err}.

Ops are started from this small process instead of from run.py because
on Linux a child's ru_maxrss starts at the RSS high-water mark of the
process that spawned it (vfork shares that memory until exec), and
run.py holds numpy and the reference tables.  This process imports no
numpy, so each op's peak RSS is its own.
"""

import json
import os
import selectors
import subprocess
import sys
import time


def spawn(args: list[str], timeout: float) -> dict:
    """Run `python args...` to exit; a child running after `timeout`
    seconds is killed.  `wall` is from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    fds = (proc.stdout.fileno(), proc.stderr.fileno())
    bufs = {fd: [] for fd in fds}
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=max(left, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    bufs[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    out, err = (b"".join(bufs[fd]).decode() for fd in fds)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "rc": "killed after timeout" if killed else proc.returncode,
        "wall": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu": usage.ru_utime + usage.ru_stime,
        "out": out,
        "err": err,
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(spawn(req["args"], req["timeout"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
